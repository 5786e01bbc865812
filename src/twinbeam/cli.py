"""Command-line pipelines: simulate, analyze, fit, predict.

Every command is a pure function of (input files, configuration, seed):
rerunning with the same inputs writes byte-identical files.  Each output
directory receives a ``manifest.json`` listing the produced files with
SHA-256 checksums.  Exit codes are stable: 0 success, 2 unusable input
(config, input file, ``--out``, or a run too large for memory), 3
empty-result condition, 4 fit failure.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .analysis import (
    bin_events,
    bootstrap_std,
    cell_histograms,
    cell_means,
    distinct_rows,
    filter_cells,
    kept_shot_rows,
    pooled_counts_histogram,
    sum_histograms,
    write_cell_stats,
)
from .checks import read_csv_rows, write_csv, write_json
from .config import config_digest, default_config, load_config, section
from .distributions import multimode_pmf, poisson_pmf, thermal_pmf
from .fitting import (
    FitFailureError,
    fit_degeneracy,
    fit_gaussian_dip,
    propagate_visibility_uncertainty,
)
from .simulate import (
    GENERATOR_ID,
    MAX_SEED,
    STREAM_POOLED_HISTOGRAM,
    STREAM_SUMMED_HISTOGRAM,
    correlation_scan,
    derive_shot_seed,
    read_event_table,
    simulate_counting_run,
    simulate_hom_run,
    write_event_table,
    write_hom_events,
)

# pooled_counts_histogram stays importable here because bench/tracer.py
# wraps it at this name; no command calls it.

EXIT_INPUT_ERROR = 2
EXIT_EMPTY_RESULT = 3
EXIT_FIT_FAILURE = 4


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(out_dir: Path, doc: dict, seed: int, files) -> None:
    manifest = {
        "tool": "twinbeam",
        "version": __version__,
        "seed": seed,
        "config_digest": config_digest(doc),
        "generator": GENERATOR_ID,
        "files": [
            {"name": f.name, "sha256": _sha256(f), "bytes": f.stat().st_size}
            for f in sorted(files)
        ],
    }
    write_json(out_dir / "manifest.json", manifest)


def _input_errors_exit_2(command):
    """Run ``command``; unusable input (``OSError``, ``ValueError``, ``MemoryError``) exits 2."""

    @functools.wraps(command)
    def run(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except (OSError, ValueError) as exc:
            _fail(EXIT_INPUT_ERROR, str(exc))
        except MemoryError as exc:
            _fail(EXIT_INPUT_ERROR, f"out of memory ({exc}): reduce the shots or bootstrap_resamples")

    return run


def _prepare_out(out: str) -> Path:
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


_COMMON_OPTIONS = [
    click.option(
        "--config",
        "config_path",
        type=click.Path(exists=False),
        required=True,
        help="Run configuration (JSON).",
    ),
    click.option("--out", required=True, help="Output directory."),
    click.option(
        "--seed",
        type=click.IntRange(0, MAX_SEED),
        default=None,
        help="Master seed override (else from config).",
    ),
]


def _with_common_options(fn):
    for option in reversed(_COMMON_OPTIONS):
        fn = option(fn)
    return fn


@click.group()
@click.version_option(version=__version__)
def main():
    """Twin-beam source simulation and counting-statistics analysis."""


@main.command("print-config")
def print_config():
    """Print the default configuration document."""
    click.echo(json.dumps(default_config(), indent=2))


@main.command("simulate-source")
@_input_errors_exit_2
@_with_common_options
def cmd_simulate_source(config_path, out, seed):
    """Generate a counting run and write its event table."""
    doc = load_config(config_path)
    out_dir = _prepare_out(out)
    config = section(doc, "source", seed)
    events_csv = out_dir / "events.csv"
    *files, events = write_event_table(simulate_counting_run(config), config, events_csv)
    _write_manifest(out_dir, doc, config.master_seed, files)
    click.echo(f"wrote {config.shots} shots, {events} detected atoms -> {events_csv}")


def _histogram_csv(path: Path, occurrences, err, overlays: dict) -> None:
    header = ",".join(["n", "occurrences", "probability", "err", *overlays])
    probs = occurrences / occurrences.sum()
    write_csv(path, header, range(len(occurrences)), occurrences, probs, err, *overlays.values())


@main.command("analyze-counts")
@_input_errors_exit_2
@click.option("--events", "events_path", required=True, help="Event-table CSV; sidecar <name>.meta.json.")
@_with_common_options
def cmd_analyze_counts(events_path, config_path, out, seed):
    """Bin, histogram, filter and fit a counting run."""
    doc = load_config(config_path)
    out_dir = _prepare_out(out)
    params = section(doc, "analysis")
    master = doc["master_seed"] if seed is None else seed
    resamples = params.bootstrap_resamples

    grid = section(doc, "grid")
    shots, blocks = read_event_table(events_path)
    binned = bin_events(blocks, shots, grid)
    hists = cell_histograms(binned)
    means = cell_means(hists)
    kept = filter_cells(means, params.min_mean)
    write_cell_stats(out_dir / "cell_stats.csv", grid, means, kept)
    if len(kept) == 0:
        _write_manifest(out_dir, doc, master, [out_dir / "cell_stats.csv"])
        _fail(
            EXIT_EMPTY_RESULT,
            f"no cells reach the mean threshold {params.min_mean}",
        )
    mean_single = float(means[kept].mean())
    events_dropped = int(binned.dropped.sum())

    # Per-cell histograms summed over the kept cells, with overlays at the
    # measured average mean.
    summed = sum_histograms(hists[kept])
    width = len(summed)
    shot_hists, kept_totals = kept_shot_rows(binned.counts, kept, width)
    del binned  # the count matrix is not needed past the kept cells' per-shot rows
    summed_err = bootstrap_std(
        *distinct_rows(shot_hists),
        resamples=resamples,
        seed=derive_shot_seed(master, STREAM_SUMMED_HISTOGRAM),
    ) / len(kept)
    _histogram_csv(
        out_dir / "summed_histogram.csv",
        summed,
        summed_err,
        {
            "thermal": thermal_pmf(mean_single, width - 1).probs,
            "poisson": poisson_pmf(mean_single, width - 1).probs,
        },
    )

    # Shot-wise pooled counts over the same cells, fit for the mode count.
    pooled = np.bincount(kept_totals)
    pooled_mean = float(cell_means(pooled))
    pooled_width = len(pooled) + 5
    sums = np.flatnonzero(pooled)
    pooled_err = bootstrap_std(
        np.eye(pooled_width)[sums],
        pooled[sums],
        resamples=resamples,
        seed=derive_shot_seed(master, STREAM_POOLED_HISTOGRAM),
    )
    try:
        fit = fit_degeneracy(pooled, fixed_mean=pooled_mean)
    except FitFailureError as exc:
        _fail(EXIT_FIT_FAILURE, f"degeneracy fit failed: {exc}")
    _histogram_csv(
        out_dir / "pooled_histogram.csv",
        np.pad(pooled, (0, 5)),
        pooled_err,
        {
            "thermal": thermal_pmf(pooled_mean, pooled_width - 1).probs,
            "poisson": poisson_pmf(pooled_mean, pooled_width - 1).probs,
            "multimode": multimode_pmf(pooled_mean, fit.degeneracy, pooled_width - 1).probs,
        },
    )
    write_json(
        out_dir / "degeneracy_fit.json",
        {
            **dataclasses.asdict(fit),
            "kept_cells": len(kept),
            "events_dropped": events_dropped,
            "average_cell_mean": mean_single,
            "pooled_mean": pooled_mean,
            "input_digest": _sha256(Path(events_path)),
        },
    )
    files = [
        out_dir / "cell_stats.csv",
        out_dir / "summed_histogram.csv",
        out_dir / "pooled_histogram.csv",
        out_dir / "degeneracy_fit.json",
    ]
    _write_manifest(out_dir, doc, master, files)
    click.echo(
        f"kept {len(kept)}/{grid.n_cells} cells, average mean "
        f"{mean_single:.4f}, pooled mean {pooled_mean:.3f}, "
        f"fitted mode count {fit.degeneracy:.2f} +/- {fit.std_err:.2f}"
    )


@main.command("simulate-hom")
@_input_errors_exit_2
@_with_common_options
def cmd_simulate_hom(config_path, out, seed):
    """Scan the splitter time and write the cross-correlation curve."""
    doc = load_config(config_path)
    out_dir = _prepare_out(out)
    config = section(doc, "hom", seed)
    run = simulate_hom_run(config)
    resamples = section(doc, "analysis").bootstrap_resamples
    # The scan runs first, so a bootstrap that fails leaves no event file.
    points = correlation_scan(run, resamples=resamples)
    event_files = write_hom_events(run, out_dir / "hom_events.csv")
    scan_csv = out_dir / "hom_scan.csv"
    write_csv(scan_csv, "t2_us,corr,err", *np.array(points, dtype=float).T)
    _write_manifest(out_dir, doc, config.master_seed, [*event_files, scan_csv])
    click.echo(f"wrote {len(points)} scan points -> {scan_csv}")


def _echo_prediction(nu: float, nu_std: float, prediction, fit=None) -> None:
    """Print the ``nu / V_pred`` table, with a ``V_obs`` column from ``fit`` when given."""
    header = "nu            V_pred"
    row = f"{nu:.3g} +/- {nu_std:.2g}   {prediction.v_pred:.2f} +/- {prediction.v_std:.2f}"
    if fit is not None:
        header += "        V_obs"
        row += f"   {fit.visibility:.2f} +/- {fit.visibility_err:.2f}"
    click.echo(header)
    click.echo(row)


@main.command("fit-dip")
@_input_errors_exit_2
@click.argument("scan_csv", type=click.Path(exists=False))
@click.option("--nu", type=float, default=None, help="Mean occupation for a predicted-visibility comparison row.")
@click.option("--nu-std", type=float, default=None, help="Uncertainty on --nu (default 0).")
@click.option("--out", required=True, help="Output directory.")
def cmd_fit_dip(scan_csv, nu, nu_std, out):
    """Fit the Gaussian dip in a correlation scan."""
    if nu is None and nu_std is not None:
        _fail(EXIT_INPUT_ERROR, "--nu-std needs --nu")
    nu_std = 0.0 if nu_std is None else nu_std
    out_dir = _prepare_out(out)
    # One (t2, corr, err) row per scan point.
    points = read_csv_rows(scan_csv, "t2_us,corr,err", [("point", "f8", 3)])["point"]
    try:
        fit = fit_gaussian_dip(points)
    except FitFailureError as exc:
        _fail(EXIT_FIT_FAILURE, f"dip fit failed: {exc} {exc.diagnostics}")

    digest = _sha256(Path(scan_csv))
    payload = {**dataclasses.asdict(fit), "converged": fit.converged, "input_digest": digest}
    if nu is not None:
        prediction = propagate_visibility_uncertainty(nu, nu_std)
        payload["comparison"] = {
            "nu": nu,
            "nu_std": nu_std,
            "v_predicted": prediction.v_pred,
            "v_predicted_err": prediction.v_std,
            "v_observed": fit.visibility,
            "v_observed_err": fit.visibility_err,
        }
        _echo_prediction(nu, nu_std, prediction, fit)
    write_json(out_dir / "dip_fit.json", payload)
    ts = np.sort(points[:, 0])
    t_dense = np.linspace(ts.min(), ts.max(), 200)
    curve_csv = out_dir / "fitted_curve.csv"
    write_csv(curve_csv, "t2_us,corr_fit", t_dense, fit.model(t_dense))
    _write_manifest(out_dir, {"scan_digest": digest}, 0, [out_dir / "dip_fit.json", curve_csv])
    click.echo(
        f"V = {fit.visibility:.4f} +/- {fit.visibility_err:.4f}, "
        f"t0 = {fit.t0:.2f} us, sigma = {fit.sigma:.2f} us, "
        f"baseline = {fit.baseline:.4g}"
    )


@main.command("predict-visibility")
@_input_errors_exit_2
@click.option("--nu", type=float, default=None, help="Mean occupation (overrides config).")
@click.option("--nu-std", type=float, default=None, help="Uncertainty on nu (overrides config).")
@click.option("--config", "config_path", default=None, help="Run configuration (JSON).")
@click.option("--out", required=True, help="Output directory.")
def cmd_predict_visibility(nu, nu_std, config_path, out):
    """Evaluate the predicted visibility with propagated uncertainty."""
    doc = {"master_seed": 0}
    if config_path is not None:
        doc = load_config(config_path)
    visibility = doc.get("visibility", {})
    if nu is None:
        nu = visibility.get("nu")
    if nu_std is None:
        nu_std = visibility.get("nu_std", 0.0)
    if nu is None:
        _fail(EXIT_INPUT_ERROR, "provide --nu or a visibility section in the config")
    out_dir = _prepare_out(out)
    prediction = propagate_visibility_uncertainty(nu, nu_std)
    write_json(out_dir / "visibility_prediction.json", dataclasses.asdict(prediction))
    _write_manifest(
        out_dir, doc, doc.get("master_seed", 0), [out_dir / "visibility_prediction.json"]
    )
    _echo_prediction(nu, nu_std, prediction)


if __name__ == "__main__":
    main()
