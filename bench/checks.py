"""Checks of twinbeam's outputs against computations made here.

Every expected value is derived in this file with ``math`` and numpy from
the physics the program claims to implement; nothing is taken from
twinbeam's own laws or from a stored copy of earlier output.  Tolerances
are statistical: ``Z_MAX`` standard errors per quantity, and a chi-square
bound at the same one-sided tail probability for a set of points, so a
check holds on any seed with probability about 1 - 1e-6 per quantity.

Each check function returns a list of failure messages; an empty list
means the operation passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

Z_MAX = 5.0
DETERMINISTIC_RTOL = 1e-9


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def chi2_bound(dof: int, z: float = Z_MAX) -> float:
    """Wilson-Hilferty chi-square quantile at the upper-tail probability of ``z``."""
    a = 2.0 / (9.0 * dof)
    return dof * (1.0 - a + z * math.sqrt(a)) ** 3


def visibility_formula(nu: float) -> float:
    return 1.0 - 1.0 / (2.0 + 1.0 / (2.0 * nu))


def cross_correlation_form(nu: float, lam: float) -> float:
    """``<n_a n_b>`` behind the splitter at overlap ``lam``, perfect detection."""
    return (2.0 * nu * nu + nu / 2.0) - lam * lam * (nu * nu + nu / 2.0)


def check_manifest(out_dir: Path) -> list[str]:
    """Every manifest entry matches its file, and every output is listed."""
    failures = []
    manifest = json.loads((out_dir / "manifest.json").read_text())
    listed = set()
    for entry in manifest["files"]:
        path = out_dir / entry["name"]
        listed.add(entry["name"])
        if not path.is_file():
            failures.append(f"manifest lists missing file {entry['name']}")
        elif sha256(path) != entry["sha256"] or path.stat().st_size != entry["bytes"]:
            failures.append(f"manifest checksum or size mismatch for {entry['name']}")
    present = {p.name for p in out_dir.iterdir() if p.name != "manifest.json"}
    if present != listed:
        failures.append(f"manifest lists {sorted(listed)} but directory holds {sorted(present)}")
    return failures


def _close(a: float, b: float, rtol: float = DETERMINISTIC_RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------- counting


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.vectorize(math.erf)(x / math.sqrt(2.0)))


def cell_expectations(source: dict, grid: dict) -> tuple[np.ndarray, np.ndarray]:
    """Analytic per-cell mean and variance of the detected count per shot.

    A mode of true mean ``nu_m`` whose atoms scatter with a Gaussian
    envelope puts a thinned thermal count of mean
    ``mu = eta nu_m prod_axes dPhi`` into a cell.  Modes are independent,
    so the cell count has mean ``sum mu`` and variance ``sum mu (1 + mu)``.
    """
    axes = [
        (np.arange(n) - (n - 1) / 2.0) * s + c
        for n, s, c in zip(source["modes_per_axis"], source["mode_spacing"], source["grid_center"])
    ]
    per_axis = []
    for axis, (n_cells, width, w_mode) in enumerate(
        zip(grid["counts_per_axis"], grid["cell_widths"], source["mode_widths"])
    ):
        edges = (np.arange(n_cells + 1) - n_cells / 2.0) * width
        if grid.get("origin") is not None:
            edges = grid["origin"][axis] + np.arange(n_cells + 1) * width
        phi = _normal_cdf((edges[None, :] - axes[axis][:, None]) / w_mode)
        per_axis.append(np.diff(phi, axis=1))  # (modes on axis, cells on axis)
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    r_sq = (
        (gx - source["grid_center"][0]) ** 2
        + (gy - source["grid_center"][1]) ** 2
        + (gz - source["grid_center"][2]) ** 2
    )
    if source["peak_width"] is None:
        nus = np.full(gx.shape, float(source["nu_per_mode"]))
    else:
        nus = source["nu_per_mode"] * np.exp(-r_sq / (2.0 * source["peak_width"] ** 2))
    # mu[i, j, k, a, b, c]: mode (i, j, k) into cell (a, b, c)
    mu = source["eta"] * np.einsum("ijk,ia,jb,kc->ijkabc", nus, *per_axis)
    mu = mu.reshape(nus.size, -1)
    return mu.sum(axis=0), (mu * (1.0 + mu)).sum(axis=0)


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_simulate_source(out_dir: Path, shots: int) -> list[str]:
    failures = check_manifest(out_dir)
    meta = json.loads((out_dir / "events.meta.json").read_text())
    if meta["shots"] != shots:
        failures.append(f"sidecar declares {meta['shots']} shots, expected {shots}")
    return failures


def nb_log_likelihood(occurrences: np.ndarray, mean: float, m: float) -> float:
    """Multinomial log-likelihood of the M-mode (negative binomial) law."""
    total = 0.0
    for n, occ in enumerate(occurrences):
        if occ:
            total += occ * (
                math.lgamma(n + m)
                - math.lgamma(n + 1.0)
                - math.lgamma(m)
                - n * math.log1p(m / mean)
                - m * math.log1p(mean / m)
            )
    return total


def moment_degeneracy(occurrences: np.ndarray) -> float:
    n = np.arange(len(occurrences))
    total = occurrences.sum()
    mean = float(n @ occurrences) / total
    var = float(((n - mean) ** 2) @ occurrences) / (total - 1)
    return mean * mean / (var - mean)


def check_analyze_counts(out_dir: Path, shots: int, source: dict, grid: dict,
                         min_mean: float, seed: int) -> list[str]:
    failures = check_manifest(out_dir)
    rows = _read_rows(out_dir / "cell_stats.csv")
    expected_mean, expected_var = cell_expectations(source, grid)
    if len(rows) != len(expected_mean):
        return failures + [f"{len(rows)} cells in cell_stats.csv, expected {len(expected_mean)}"]
    dims = grid["counts_per_axis"]
    means = np.array([float(r["mean"]) for r in rows])
    kept = np.array([r["kept"] == "1" for r in rows])
    order = [np.ravel_multi_index((int(r["ix"]), int(r["iy"]), int(r["iz"])), dims) for r in rows]
    z = (means - expected_mean[order]) / np.sqrt(expected_var[order] / shots)
    worst = int(np.argmax(np.abs(z)))
    if abs(z[worst]) > Z_MAX:
        failures.append(f"cell {worst} mean {means[worst]:.5f} is {z[worst]:.2f} SE from "
                        f"the analytic {expected_mean[order][worst]:.5f}")
    if not np.array_equal(kept, means >= min_mean):
        failures.append("kept flag differs from mean >= min_mean")

    fit = json.loads((out_dir / "degeneracy_fit.json").read_text())
    kept_means = means[kept]
    if fit["kept_cells"] != int(kept.sum()):
        failures.append(f"kept_cells {fit['kept_cells']} != {int(kept.sum())} flagged cells")
    if not _close(fit["pooled_mean"], float(kept_means.sum())):
        failures.append(f"pooled mean {fit['pooled_mean']} != sum of kept means "
                        f"{kept_means.sum()}")
    if not _close(fit["average_cell_mean"], float(kept_means.mean())):
        failures.append("average_cell_mean differs from the mean of the kept cells")

    pooled = _read_rows(out_dir / "pooled_histogram.csv")
    occurrences = np.array([int(r["occurrences"]) for r in pooled])
    if occurrences.sum() != shots:
        failures.append(f"pooled histogram holds {occurrences.sum()} shots, expected {shots}")
    n = np.arange(len(occurrences))
    if not _close(float(n @ occurrences) / shots, fit["pooled_mean"]):
        failures.append("pooled histogram mean differs from pooled_mean")
    m_hat, mean = fit["degeneracy"], fit["fixed_mean"]
    ll_hat = nb_log_likelihood(occurrences, mean, m_hat)
    if not _close(ll_hat, fit["log_likelihood"], 1e-8):
        failures.append(f"log-likelihood {fit['log_likelihood']} != recomputed {ll_hat}")
    for step in (0.99, 1.01):
        if nb_log_likelihood(occurrences, mean, m_hat * step) > ll_hat + 1e-9 * abs(ll_hat):
            failures.append(f"fitted mode count {m_hat} is not a local maximum "
                            f"(x{step} is higher)")
    if fit["at_bound"]:
        failures.append("degeneracy fit reports a bracket-edge solution")
    # The moment estimate is less efficient than the likelihood fit, so the
    # spread of their difference is at most the moment estimate's own,
    # taken here from a multinomial bootstrap of the pooled histogram.
    m_mom = moment_degeneracy(occurrences)
    rng = np.random.default_rng(seed)
    probs = occurrences / shots
    boot = [moment_degeneracy(rng.multinomial(shots, probs)) for _ in range(400)]
    sd = float(np.std(boot, ddof=1))
    if abs(m_mom - m_hat) > Z_MAX * sd:
        failures.append(f"mode count {m_hat:.3f} vs moment estimate {m_mom:.3f} "
                        f"differs by more than {Z_MAX} x {sd:.3f}")
    return failures


# ---------------------------------------------------------------- hom


def hom_expected(t2: np.ndarray, hom: dict) -> np.ndarray:
    """Detected ``<n_a n_b>`` at each splitter time for the Gaussian overlap."""
    lam = np.exp(-((t2 - hom["t0"]) ** 2) / (2.0 * hom["sigma_m"] ** 2))
    nu, eta = hom["nu"], hom["eta"]
    return eta * eta * ((2 * nu * nu + nu / 2) - lam * lam * (nu * nu + nu / 2))


def check_simulate_hom(out_dir: Path, hom: dict) -> list[str]:
    failures = check_manifest(out_dir)
    scan = np.array([[float(r["t2_us"]), float(r["corr"]), float(r["err"])]
                     for r in _read_rows(out_dir / "hom_scan.csv")])
    t2_values = np.asarray(hom["t2_values"], dtype=float)
    if scan.shape != (len(t2_values), 3) or not np.array_equal(scan[:, 0], t2_values):
        return failures + ["hom_scan.csv does not hold one row per configured t2"]
    # A point's bootstrap error scales with the square root of its observed
    # mean, as coincidences are sparse; a low fluctuation would shrink its
    # own error.  The error is therefore rescaled to the expected mean.
    expected = hom_expected(scan[:, 0], hom)
    err = scan[:, 2] * np.sqrt(expected / np.maximum(scan[:, 1], 1.0 / hom["shots_per_point"]))
    z = (scan[:, 1] - expected) / err
    worst = int(np.argmax(np.abs(z)))
    if abs(z[worst]) > Z_MAX:
        failures.append(f"scan point t2={scan[worst, 0]} is {z[worst]:.2f} errors from the law")
    chi2 = float(z @ z)
    if chi2 > chi2_bound(len(z)):
        failures.append(f"scan chi-square {chi2:.1f} above {chi2_bound(len(z)):.1f} "
                        f"for {len(z)} points")

    # Per-shot detected counts per port, from the event rows.
    shots = hom["shots_per_point"]
    index = {t: i for i, t in enumerate(t2_values)}
    counts = {"a": np.zeros(len(t2_values) * shots), "b": np.zeros(len(t2_values) * shots)}
    for row in _read_rows(out_dir / "hom_events.csv"):
        counts[row["port"]][index[float(row["t2_us"])] * shots + int(row["shot"])] += 1
    eta_nu = hom["eta"] * hom["nu"]
    for port, per_shot in counts.items():
        se = per_shot.std(ddof=1) / math.sqrt(len(per_shot))
        if abs(per_shot.mean() - eta_nu) > Z_MAX * se:
            failures.append(f"port {port} mean count {per_shot.mean():.5f} vs eta*nu = {eta_nu}")
    return failures


def check_fit_dip(out_dir: Path, hom: dict, nu_std: float) -> list[str]:
    failures = check_manifest(out_dir)
    fit = json.loads((out_dir / "dip_fit.json").read_text())
    nu, eta = hom["nu"], hom["eta"]
    targets = {
        "visibility": visibility_formula(nu),
        "sigma": hom["sigma_m"] / math.sqrt(2.0),
        "baseline": eta * eta * (2 * nu * nu + nu / 2),
        "t0": hom["t0"],
    }
    for key, target in targets.items():
        if abs(fit[key] - target) > Z_MAX * fit[f"{key}_err"]:
            failures.append(f"fitted {key} {fit[key]:.5g} +/- {fit[f'{key}_err']:.3g} "
                            f"vs {target:.5g}")
    if not fit["converged"]:
        failures.append("dip fit reports no convergence")
    comparison = fit["comparison"]
    g = 2.0 + 1.0 / (2.0 * nu)
    if not _close(comparison["v_predicted"], visibility_formula(nu)):
        failures.append(f"predicted V {comparison['v_predicted']} != formula")
    if not _close(comparison["v_predicted_err"], nu_std / (2.0 * nu * nu * g * g)):
        failures.append(f"predicted V error {comparison['v_predicted_err']} != delta method")
    curve = np.array([[float(r["t2_us"]), float(r["corr_fit"])]
                      for r in _read_rows(out_dir / "fitted_curve.csv")])
    model = fit["baseline"] * (1.0 - fit["visibility"] * np.exp(
        -((curve[:, 0] - fit["t0"]) ** 2) / (2.0 * fit["sigma"] ** 2)))
    if not np.allclose(curve[:, 1], model, rtol=1e-12, atol=0.0):
        failures.append("fitted_curve.csv differs from the fitted parameters' model")
    return failures
