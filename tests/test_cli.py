"""Tests for the command-line pipelines."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from twinbeam import fock
from twinbeam.analysis import CellGrid
from twinbeam.cli import main
from twinbeam.config import ConfigError, default_config, load_config, validate_config

REPO_ROOT = Path(__file__).resolve().parents[1]

# The keys of dip_fit.json without --nu: the fields of DipFit, converged and
# the scan's digest.
DIP_FIT_KEYS = [
    "at_bound", "baseline", "baseline_err", "chi2", "converged", "input_digest",
    "n_iterations", "sigma", "sigma_err", "t0", "t0_err", "visibility", "visibility_err",
]


@pytest.fixture()
def runner():
    return CliRunner()


def small_doc(**overrides):
    doc = default_config()
    doc["master_seed"] = 4242
    doc["source"].update(
        {
            "shots": 120,
            "nu_per_mode": 4.5,
        }
    )
    doc["hom"].update(
        {
            "t2_values": [-180.0, -90.0, 0.0, 90.0, 180.0],
            "shots_per_point": 150,
        }
    )
    doc.update(overrides)
    return doc


def src_env():
    """The environment with ``src`` first on ``PYTHONPATH``, for a CLI subprocess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    return env


def write_doc(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return path


def tree_digest(out_dir):
    return {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(out_dir.iterdir())
    }


class TestConfigValidation:
    def test_default_config_is_valid(self):
        validate_config(default_config())

    def test_unknown_key_rejected(self, tmp_path, runner):
        doc = small_doc()
        doc["surprise"] = 1
        path = write_doc(tmp_path, doc)
        result = runner.invoke(
            main, ["simulate-source", "--config", str(path), "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 2
        assert "surprise" in result.output

    def test_retired_bootstrap_resamples_key_rejected(self, tmp_path, runner):
        doc = small_doc()
        doc["analysis"]["bootstrap_resamples"] = 1000
        path = write_doc(tmp_path, doc)
        result = runner.invoke(
            main, ["simulate-hom", "--config", str(path), "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 2
        assert "unknown key 'bootstrap_resamples'" in result.output

    def test_nested_unknown_key_rejected(self, tmp_path):
        doc = small_doc()
        doc["source"]["extra"] = 2
        with pytest.raises(ValueError):
            validate_config(doc)

    def test_zero_shots_rejected(self, tmp_path, runner):
        doc = small_doc()
        doc["source"]["shots"] = 0
        path = write_doc(tmp_path, doc)
        result = runner.invoke(
            main, ["simulate-source", "--config", str(path), "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 2
        assert "shots" in result.output

    def test_not_json_rejected(self, tmp_path, runner):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        result = runner.invoke(
            main, ["simulate-source", "--config", str(path), "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "section", ["<root>", "source", "grid", "analysis", "hom", "visibility"]
    )
    def test_unknown_key_rejected_at_every_level(self, tmp_path, runner, section):
        doc = small_doc()
        (doc if section == "<root>" else doc[section])["stray_key"] = 1
        path = write_doc(tmp_path, doc)
        result = runner.invoke(
            main, ["simulate-source", "--config", str(path), "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 2
        assert f"config invalid at {section}:" in result.output
        assert "stray_key" in result.output

    # Each value below but the bool used to get past validation: a traceback
    # with exit 1, exit 0 with NaN velocities or an ignored infinity, or
    # exit 3 from an empty cell selection.
    @pytest.mark.parametrize(
        "command,section,key,value",
        [
            ("simulate-hom", "hom", "nu", float("nan")),
            ("simulate-hom", "hom", "sigma_m", float("nan")),
            ("simulate-hom", "hom", "t0", float("inf")),
            ("simulate-source", "source", "nu_per_mode", float("nan")),
            ("simulate-source", "source", "nu_per_mode", float("inf")),
            ("simulate-source", "source", "eta", float("nan")),
            pytest.param(
                "simulate-source", "source", "nu_per_mode", 10**400, id="nu_per_mode-10**400"
            ),
            ("simulate-source", "source", "mode_widths", [float("nan"), 1.0, 1.0]),
            ("simulate-source", "source", "shots", 10.0),
            ("simulate-source", "source", "shots", True),
            ("simulate-source", "source", "shots", 10**12 + 1),
            ("simulate-hom", "hom", "shots_per_point", 2 * 10**11 + 1),
            ("analyze-counts", "grid", "cell_widths", [5.5, float("nan"), 2.5]),
            ("analyze-counts", "analysis", "min_mean", float("nan")),
        ],
    )
    def test_bad_value_exits_2_naming_field(self, tmp_path, runner, command, section, key, value):
        doc = small_doc()
        doc[section][key] = value
        path = write_doc(tmp_path, doc)
        args = [command, "--config", str(path), "--out", str(tmp_path / "o")]
        if command == "analyze-counts":
            args += ["--events", str(tmp_path / "events.csv")]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert f"config invalid at {section}: {key} must be" in result.output

    @pytest.mark.parametrize(
        "config_seed,extra", [(2**64 + 7, []), (4242, ["--seed", "-1"]), (4242, ["--seed", str(2**64)])]
    )
    def test_seed_outside_64_bits_exits_2(self, tmp_path, runner, config_seed, extra):
        path = write_doc(tmp_path, small_doc(master_seed=config_seed))
        out = tmp_path / "o"
        result = runner.invoke(
            main, ["simulate-source", "--config", str(path), "--out", str(out), *extra]
        )
        assert result.exit_code == 2
        assert "seed" in result.output
        assert not (out / "events.csv").exists()

    def test_hom_nu_past_the_fock_basis_bound_is_invalid(self):
        # nu = 50 would need a 9.2 GB basis; validation only computes its size.
        doc = small_doc()
        doc["hom"]["nu"] = 50.0
        with pytest.raises(ConfigError, match=r"^config invalid at hom: a HOM Fock basis of 1197 "):
            validate_config(doc)

    def test_simulate_hom_past_the_fock_basis_bound_exits_2(self, tmp_path, runner, monkeypatch):
        # The bound is lowered below the 34-pair basis of nu = 1, so the scan
        # that a missing check would run stays small.
        monkeypatch.setattr(fock, "MAX_BASIS_FLOATS", 1000)
        doc = small_doc()
        doc["hom"]["nu"] = 1.0
        out = tmp_path / "o"
        result = runner.invoke(
            main, ["simulate-hom", "--config", str(write_doc(tmp_path, doc)), "--out", str(out)]
        )
        assert result.exit_code == 2, result.output
        assert "config invalid at hom: a HOM Fock basis of 34 pairs" in result.output
        assert not out.exists()

    def test_shipped_config_is_the_default(self):
        assert load_config(REPO_ROOT / "configs" / "default.json") == default_config()

    @pytest.mark.parametrize(
        "section,key,value",
        [("hom", "fock_n_max", 12), ("source", "peak_separation", 50.0), ("hom", "t1", 1000.0)],
    )
    def test_removed_key_rejected_naming_section(self, tmp_path, runner, section, key, value):
        doc = small_doc()
        doc[section][key] = value
        path = write_doc(tmp_path, doc)
        result = runner.invoke(
            main, ["simulate-hom", "--config", str(path), "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 2
        assert f"config invalid at {section}:" in result.output
        assert key in result.output

    def test_loader_roundtrip(self, tmp_path):
        path = write_doc(tmp_path, small_doc())
        doc = load_config(path)
        assert doc["master_seed"] == 4242


class TestSimulateSource:
    def test_outputs_and_manifest(self, tmp_path, runner):
        path = write_doc(tmp_path, small_doc())
        out = tmp_path / "run"
        result = runner.invoke(
            main, ["simulate-source", "--config", str(path), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 4242
        # Wall-clock time stays out of the manifest, so reruns are byte-identical.
        assert "timestamp" not in manifest
        listed = {f["name"] for f in manifest["files"]}
        assert listed == {"events.csv", "events.meta.json"}
        for entry in manifest["files"]:
            digest = hashlib.sha256((out / entry["name"]).read_bytes()).hexdigest()
            assert digest == entry["sha256"]

    def test_rerun_is_byte_identical(self, tmp_path, runner):
        path = write_doc(tmp_path, small_doc())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            result = runner.invoke(
                main, ["simulate-source", "--config", str(path), "--out", str(out)]
            )
            assert result.exit_code == 0, result.output
        assert tree_digest(out_a) == tree_digest(out_b)

    def test_seed_override(self, tmp_path, runner):
        path = write_doc(tmp_path, small_doc())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        runner.invoke(main, ["simulate-source", "--config", str(path), "--out", str(out_a)])
        runner.invoke(
            main,
            ["simulate-source", "--config", str(path), "--out", str(out_b), "--seed", "7"],
        )
        assert tree_digest(out_a) != tree_digest(out_b)
        manifest = json.loads((out_b / "manifest.json").read_text())
        assert manifest["seed"] == 7


class TestAnalyzeCounts:
    @pytest.fixture()
    def events_dir(self, tmp_path, runner):
        doc = small_doc()
        doc["source"]["shots"] = 400
        path = write_doc(tmp_path, doc)
        out = tmp_path / "events"
        result = runner.invoke(
            main, ["simulate-source", "--config", str(path), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        return path, out

    def test_full_analysis(self, tmp_path, runner, events_dir):
        config_path, events_out = events_dir
        out = tmp_path / "analysis"
        result = runner.invoke(
            main,
            [
                "analyze-counts",
                "--events", str(events_out / "events.csv"),
                "--config", str(config_path),
                "--out", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        summed = (out / "summed_histogram.csv").read_text().splitlines()
        assert summed[0] == "n,occurrences,probability,err,thermal,poisson"
        pooled = (out / "pooled_histogram.csv").read_text().splitlines()
        assert pooled[0] == "n,occurrences,probability,err,thermal,poisson,multimode"
        fit = json.loads((out / "degeneracy_fit.json").read_text())
        assert sorted(fit) == [
            "at_bound", "average_cell_mean", "degeneracy", "events_dropped", "fixed_mean",
            "input_digest", "kept_cells", "log_likelihood", "pooled_mean", "std_err",
        ]
        assert fit["degeneracy"] > 0
        assert fit["std_err"] > 0
        cells = (out / "cell_stats.csv").read_text().splitlines()
        assert cells[0] == "ix,iy,iz,mean,kept"
        assert len(cells) == 46

    def test_empty_selection_exits_3(self, tmp_path, runner, events_dir):
        config_path, events_out = events_dir
        doc = json.loads(config_path.read_text())
        doc["analysis"]["min_mean"] = 99.0
        path = write_doc(tmp_path, doc, "strict.json")
        result = runner.invoke(
            main,
            [
                "analyze-counts",
                "--events", str(events_out / "events.csv"),
                "--config", str(path),
                "--out", str(tmp_path / "empty"),
            ],
        )
        assert result.exit_code == 3

    def test_malformed_event_row_exits_2_naming_line(self, tmp_path, runner, events_dir):
        config_path, events_out = events_dir
        csv_path = events_out / "events.csv"
        lines = csv_path.read_text().splitlines()
        lines[5] = "0,oops,0.0,0.0"
        broken = tmp_path / "broken.csv"
        broken.write_text("\n".join(lines) + "\n")
        (tmp_path / "broken.meta.json").write_text(
            (events_out / "events.meta.json").read_text()
        )
        result = runner.invoke(
            main,
            [
                "analyze-counts",
                "--events", str(broken),
                "--config", str(config_path),
                "--out", str(tmp_path / "x"),
            ],
        )
        assert result.exit_code == 2
        assert ":6:" in result.output

    @pytest.mark.parametrize("velocity", ["nan", "inf", "-inf"])
    def test_non_finite_velocity_exits_2_naming_line(self, tmp_path, runner, events_dir, velocity):
        config_path, events_out = events_dir
        lines = (events_out / "events.csv").read_text().splitlines()
        lines[5] = f"0,0.0,{velocity},0.0"
        broken = tmp_path / "broken.csv"
        broken.write_text("\n".join(lines) + "\n")
        (tmp_path / "broken.meta.json").write_text(
            (events_out / "events.meta.json").read_text()
        )
        result = runner.invoke(
            main,
            [
                "analyze-counts",
                "--events", str(broken),
                "--config", str(config_path),
                "--out", str(tmp_path / "x"),
            ],
        )
        assert result.exit_code == 2
        assert ":6:" in result.output
        assert "non-finite" in result.output

    @pytest.mark.parametrize("shots", [10**15, 10**11, 1.5, 0, -3, True, None])
    def test_bad_sidecar_shots_exits_2_naming_key(self, tmp_path, runner, events_dir, shots):
        config_path, events_out = events_dir
        meta = json.loads((events_out / "events.meta.json").read_text())
        meta["shots"] = meta["config"]["shots"] = shots
        events_path = tmp_path / "bad.csv"
        events_path.write_bytes((events_out / "events.csv").read_bytes())
        meta_path = tmp_path / "bad.meta.json"
        meta_path.write_text(json.dumps(meta))
        argv = [
            "analyze-counts",
            "--events", str(events_path),
            "--config", str(config_path),
            "--out", str(tmp_path / "x"),
        ]
        if shots == 10**11:
            # Within SHOT_ID_LIMIT, but its count matrix needs 36 TB.  A cap
            # on the address space makes that allocation fail whatever the
            # system's overcommit policy.
            cap = "import resource; resource.setrlimit(resource.RLIMIT_AS, (16 << 30,) * 2)"
            env = src_env()
            result = subprocess.run(
                [sys.executable, "-c", f"{cap}; from twinbeam.cli import main; main()", *argv],
                env=env, capture_output=True, text=True,
            )
            exit_code, output = result.returncode, result.stderr
        else:
            result = runner.invoke(main, argv)
            exit_code, output = result.exit_code, result.output
            assert str(meta_path) in output
        assert exit_code == 2, output
        assert "shots" in output
        assert "Traceback" not in output

    @pytest.mark.parametrize(
        "edit, key",
        [
            (lambda meta: [], "object"),
            (lambda meta: "x", "object"),
            (lambda meta: {**meta, "config": 5}, "config"),
            (lambda meta: {**meta, "config": [meta["config"]]}, "config"),
            (lambda meta: {k: v for k, v in meta.items() if k != "config"}, "config"),
            (lambda meta: {**meta, "config": {**meta["config"], "shots": 7}}, "config declares 7"),
        ],
        ids=["list", "string", "config-number", "config-list", "no-config", "config-shots-disagree"],
    )
    def test_malformed_sidecar_exits_2_naming_file_and_key(
        self, tmp_path, runner, events_dir, edit, key
    ):
        config_path, events_out = events_dir
        meta = json.loads((events_out / "events.meta.json").read_text())
        events_path = tmp_path / "bad.csv"
        events_path.write_bytes((events_out / "events.csv").read_bytes())
        meta_path = tmp_path / "bad.meta.json"
        meta_path.write_text(json.dumps(edit(meta)))
        result = runner.invoke(
            main,
            [
                "analyze-counts",
                "--events", str(events_path),
                "--config", str(config_path),
                "--out", str(tmp_path / "x"),
            ],
        )
        assert result.exit_code == 2, result.output
        assert str(meta_path) in result.output
        assert key in result.output

    def test_cell_of_300_atoms_counts_exactly(self, tmp_path, runner, events_dir):
        # Shot 0 gains 300 atoms in the centre cell, past one byte a cell.
        config_path, events_out = events_dir
        events_csv = events_out / "events.csv"
        with open(events_csv, "a") as fh:
            fh.write("0,0.000000000,0.000000000,0.000000000\n" * 300)
        out = tmp_path / "analysis"
        result = runner.invoke(main, [
            "analyze-counts", "--events", str(events_csv), "--config", str(config_path),
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        # Reference: int64 counts binned here, histogrammed one cell at a time.
        rows = np.loadtxt(events_csv, delimiter=",", skiprows=1)
        grid = CellGrid()
        idx = np.floor((rows[:, 1:] - grid.origin) / grid.cell_widths).astype(np.int64)
        inside = ((idx >= 0) & (idx < grid.counts_per_axis)).all(axis=1)
        counts = np.zeros((400, grid.n_cells), dtype=np.int64)
        cells = np.ravel_multi_index(idx[inside].T, grid.counts_per_axis)
        np.add.at(counts, (rows[inside, 0].astype(np.int64), cells), 1)
        assert counts[0, grid.n_cells // 2] >= 300
        stats = np.loadtxt(out / "cell_stats.csv", delimiter=",", skiprows=1)
        assert stats[:, 3].tolist() == (counts.sum(axis=0) / 400).tolist()
        kept = np.flatnonzero(stats[:, 4])
        width = int(counts[:, kept].max()) + 1
        summed = sum(np.bincount(counts[:, cell], minlength=width) for cell in kept)
        pooled = np.bincount(counts[:, kept].sum(axis=1))
        for name, occurrences in [("summed", summed), ("pooled", np.pad(pooled, (0, 5)))]:
            table = np.loadtxt(out / f"{name}_histogram.csv", delimiter=",", skiprows=1)
            assert table[:, 1].tolist() == occurrences.tolist()

    def test_rerun_is_byte_identical(self, tmp_path, runner, events_dir):
        config_path, events_out = events_dir
        outs = (tmp_path / "r1", tmp_path / "r2")
        for out in outs:
            result = runner.invoke(
                main,
                [
                    "analyze-counts",
                    "--events", str(events_out / "events.csv"),
                    "--config", str(config_path),
                    "--out", str(out),
                ],
            )
            assert result.exit_code == 0, result.output
        assert tree_digest(outs[0]) == tree_digest(outs[1])


class TestSimulateHomAndFitDip:
    @pytest.fixture()
    def scan_dir(self, tmp_path, runner):
        doc = small_doc()
        doc["hom"]["shots_per_point"] = 600
        doc["hom"]["t2_values"] = list(np.linspace(-240, 240, 9))
        path = write_doc(tmp_path, doc)
        out = tmp_path / "hom"
        result = runner.invoke(
            main, ["simulate-hom", "--config", str(path), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        return path, out

    def test_scan_outputs(self, scan_dir):
        _, out = scan_dir
        lines = (out / "hom_scan.csv").read_text().splitlines()
        assert lines[0] == "t2_us,corr,err"
        assert len(lines) == 10
        events = (out / "hom_events.csv").read_text().splitlines()
        assert events[0] == "shot,vx,vy,vz,port,t2_us"

    def test_dip_visible(self, scan_dir):
        _, out = scan_dir
        rows = [
            [float(v) for v in line.split(",")]
            for line in (out / "hom_scan.csv").read_text().splitlines()[1:]
        ]
        center = min(rows, key=lambda r: abs(r[0]))[1]
        edge = max(rows, key=lambda r: abs(r[0]))[1]
        assert center < edge

    def test_fit_dip(self, tmp_path, runner, scan_dir):
        _, out = scan_dir
        fit_out = tmp_path / "fit"
        result = runner.invoke(
            main,
            [
                "fit-dip", str(out / "hom_scan.csv"),
                "--nu", "0.33", "--nu-std", "0.07",
                "--out", str(fit_out),
            ],
        )
        assert result.exit_code == 0, result.output
        fit = json.loads((fit_out / "dip_fit.json").read_text())
        assert sorted(fit) == sorted(DIP_FIT_KEYS + ["comparison"])
        assert sorted(fit["comparison"]) == [
            "nu", "nu_std", "v_observed", "v_observed_err", "v_predicted", "v_predicted_err",
        ]
        assert 0.3 < fit["visibility"] <= 1.0
        assert fit["converged"]
        assert "comparison" in fit
        assert round(fit["comparison"]["v_predicted"], 2) == 0.72
        curve = (fit_out / "fitted_curve.csv").read_text().splitlines()
        assert curve[0] == "t2_us,corr_fit"
        assert len(curve) == 201

    def test_fit_dip_too_few_rows_exits_2(self, tmp_path, runner):
        path = tmp_path / "tiny.csv"
        path.write_text("t2_us,corr,err\n0.0,1.0,0.1\n1.0,0.9,0.1\n")
        result = runner.invoke(
            main, ["fit-dip", str(path), "--out", str(tmp_path / "f")]
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "t2",
        [[-100.0, -100.0, 0.0, 0.0, 100.0, 100.0], [0.0] * 5],
        ids=["three-distinct", "five-equal"],
    )
    def test_fit_dip_too_few_distinct_t2_exits_2(self, tmp_path, runner, t2):
        path = tmp_path / "repeated.csv"
        corr = 0.4 * (1 - 0.7 * np.exp(-(np.array(t2) ** 2) / (2 * 86.0**2)))
        path.write_text(
            "t2_us,corr,err\n" + "".join(f"{a},{b},0.01\n" for a, b in zip(t2, corr))
        )
        out = tmp_path / "f"
        result = runner.invoke(main, ["fit-dip", str(path), "--out", str(out)])
        assert result.exit_code == 2
        assert "distinct t2" in result.output
        assert not (out / "dip_fit.json").exists()

    def test_fit_dip_flat_scan_exits_4(self, tmp_path, runner):
        # An exactly flat scan fits at V = 0, where t0 and sigma leave the
        # model and the normal matrix is singular.
        path = tmp_path / "flat.csv"
        path.write_text(
            "t2_us,corr,err\n" + "".join(f"{a},0.25,0.5\n" for a in np.linspace(-240, 240, 9))
        )
        out = tmp_path / "f"
        result = runner.invoke(main, ["fit-dip", str(path), "--out", str(out)])
        assert result.exit_code == 4
        assert "dip fit failed: singular normal matrix" in result.output
        assert not (out / "dip_fit.json").exists()

    def test_fit_dip_default_seed_1_fits_with_sigma_at_bound(self, tmp_path, runner):
        # The shipped 13-point scan on seed 1 pulls sigma below the point
        # spacing; the fit stops at its lower bound instead of failing.
        path = write_doc(tmp_path, {"master_seed": 1})
        hom = tmp_path / "hom"
        result = runner.invoke(main, ["simulate-hom", "--config", str(path), "--out", str(hom)])
        assert result.exit_code == 0, result.output
        out = tmp_path / "fit"
        result = runner.invoke(main, ["fit-dip", str(hom / "hom_scan.csv"), "--out", str(out)])
        assert result.exit_code == 0, result.output
        fit = json.loads((out / "dip_fit.json").read_text())
        assert sorted(fit) == DIP_FIT_KEYS
        assert fit["at_bound"] == ["sigma"]
        assert not fit["converged"]
        assert 0.0 <= fit["visibility"] <= 1.0

    def test_fit_dip_malformed_row_exits_2(self, tmp_path, runner):
        path = tmp_path / "bad.csv"
        path.write_text("t2_us,corr,err\n0.0,1.0\n")
        result = runner.invoke(
            main, ["fit-dip", str(path), "--out", str(tmp_path / "f")]
        )
        assert result.exit_code == 2
        assert ":2:" in result.output

    def test_fit_dip_non_finite_nu_exits_2(self, tmp_path, runner):
        t = np.linspace(-240.0, 240.0, 9)
        corr = 0.4 * (1 - 0.7 * np.exp(-(t**2) / (2 * 86.0**2)))
        path = tmp_path / "scan.csv"
        path.write_text(
            "t2_us,corr,err\n" + "".join(f"{a},{b},0.01\n" for a, b in zip(t, corr))
        )
        out = tmp_path / "f"
        result = runner.invoke(main, ["fit-dip", str(path), "--nu", "nan", "--out", str(out)])
        assert result.exit_code == 2
        assert not (out / "dip_fit.json").exists()

    @pytest.mark.parametrize("nu_std", ["nan", "-1", "0.07"])
    def test_fit_dip_nu_std_without_nu_exits_2(self, tmp_path, runner, nu_std):
        t = np.linspace(-240.0, 240.0, 9)
        corr = 0.4 * (1 - 0.7 * np.exp(-(t**2) / (2 * 86.0**2)))
        path = tmp_path / "scan.csv"
        path.write_text(
            "t2_us,corr,err\n" + "".join(f"{a},{b},0.01\n" for a, b in zip(t, corr))
        )
        out = tmp_path / "f"
        result = runner.invoke(main, ["fit-dip", str(path), "--nu-std", nu_std, "--out", str(out)])
        assert result.exit_code == 2
        assert "needs --nu" in result.output
        assert not (out / "dip_fit.json").exists()

    @pytest.mark.parametrize(
        "row",
        ["inf,0.3,0.01", "0.0,inf,0.01", "0.0,0.3,inf", "0.0,nan,0.01"],
        ids=["inf-t2", "inf-corr", "inf-err", "nan-corr"],
    )
    def test_fit_dip_non_finite_scan_value_exits_2_naming_line(self, tmp_path, runner, row):
        t = np.linspace(-240.0, 240.0, 9)
        corr = 0.4 * (1 - 0.7 * np.exp(-(t**2) / (2 * 86.0**2)))
        rows = [f"{a},{b},0.01" for a, b in zip(t, corr)]
        rows[4] = row
        path = tmp_path / "scan.csv"
        path.write_text("t2_us,corr,err\n" + "\n".join(rows) + "\n")
        out = tmp_path / "f"
        result = runner.invoke(main, ["fit-dip", str(path), "--out", str(out)])
        assert result.exit_code == 2
        assert f"{path}:6:" in result.output
        assert not (out / "dip_fit.json").exists()

    def test_flat_scan_when_overlap_never_opens(self, tmp_path, runner):
        # Dip centre far outside the scanned window: overlap stays ~0 and
        # the correlation curve is flat within its errors.
        doc = small_doc()
        doc["hom"]["t0"] = 1.0e6
        doc["hom"]["shots_per_point"] = 2000
        path = write_doc(tmp_path, doc)
        out = tmp_path / "flat"
        result = runner.invoke(
            main, ["simulate-hom", "--config", str(path), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        rows = [
            [float(v) for v in line.split(",")]
            for line in (out / "hom_scan.csv").read_text().splitlines()[1:]
        ]
        corr = np.array([r[1] for r in rows])
        err = np.array([r[2] for r in rows])
        assert corr.max() - corr.min() < 4 * err.max()

    def test_hom_rerun_byte_identical(self, tmp_path, runner):
        doc = small_doc()
        path = write_doc(tmp_path, doc)
        outs = (tmp_path / "h1", tmp_path / "h2")
        for out in outs:
            result = runner.invoke(
                main, ["simulate-hom", "--config", str(path), "--out", str(out)]
            )
            assert result.exit_code == 0, result.output
        assert tree_digest(outs[0]) == tree_digest(outs[1])


class TestPredictVisibility:
    def test_present_work_row(self, tmp_path, runner):
        out = tmp_path / "pred"
        result = runner.invoke(
            main,
            ["predict-visibility", "--nu", "0.33", "--nu-std", "0.07", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert "0.72 +/- 0.03" in result.output or "0.72 +/- 0.02" in result.output
        payload = json.loads((out / "visibility_prediction.json").read_text())
        assert sorted(payload) == [
            "nu", "nu_std", "v_band", "v_pred", "v_std",
        ]
        assert round(payload["v_pred"], 2) == 0.72

    def test_exact_value_with_zero_std(self, tmp_path, runner):
        out = tmp_path / "pred0"
        result = runner.invoke(
            main, ["predict-visibility", "--nu", "0.33", "--nu-std", "0", "--out", str(out)]
        )
        assert result.exit_code == 0
        payload = json.loads((out / "visibility_prediction.json").read_text())
        assert payload["v_pred"] == pytest.approx(0.715517241379, abs=1e-9)
        assert payload["v_std"] == 0.0

    def test_config_section_used(self, tmp_path, runner):
        path = write_doc(tmp_path, small_doc())
        out = tmp_path / "predc"
        result = runner.invoke(
            main, ["predict-visibility", "--config", str(path), "--out", str(out)]
        )
        assert result.exit_code == 0
        payload = json.loads((out / "visibility_prediction.json").read_text())
        assert payload["nu"] == 0.33

    @pytest.mark.parametrize(
        "visibility,expected", [(None, None), ({"nu": 0.5}, (0.5, 0.0))]
    )
    def test_config_fallbacks(self, tmp_path, runner, visibility, expected):
        # No section: --nu is required.  No nu_std: 0.0, not the default.
        doc = small_doc()
        del doc["visibility"]
        if visibility is not None:
            doc["visibility"] = visibility
        path = write_doc(tmp_path, doc)
        out = tmp_path / "p"
        result = runner.invoke(
            main, ["predict-visibility", "--config", str(path), "--out", str(out)]
        )
        if expected is None:
            assert result.exit_code == 2
            assert "--nu" in result.output
        else:
            assert result.exit_code == 0, result.output
            payload = json.loads((out / "visibility_prediction.json").read_text())
            assert (payload["nu"], payload["nu_std"]) == expected

    def test_nonpositive_nu_exits_2(self, tmp_path, runner):
        result = runner.invoke(
            main, ["predict-visibility", "--nu", "0", "--out", str(tmp_path / "p")]
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "args", [["--nu", "nan"], ["--nu", "inf"], ["--nu", "0.33", "--nu-std", "nan"]]
    )
    def test_non_finite_input_exits_2(self, tmp_path, runner, args):
        out = tmp_path / "p"
        result = runner.invoke(main, ["predict-visibility", *args, "--out", str(out)])
        assert result.exit_code == 2
        assert "finite" in result.output
        assert not (out / "visibility_prediction.json").exists()


class TestUnusableInputExits2:
    """Input no command can use exits 2 with ``error: ...``, never with a traceback."""

    @pytest.mark.parametrize(
        "command", ["simulate-source", "analyze-counts", "simulate-hom", "fit-dip", "predict-visibility"]
    )
    def test_out_naming_a_file_exits_2(self, tmp_path, runner, command):
        # The output directory is made before any input is read, so the
        # event table and the scan need not exist.
        config = str(write_doc(tmp_path, small_doc()))
        args = {
            "simulate-source": ["--config", config],
            "analyze-counts": ["--events", str(tmp_path / "events.csv"), "--config", config],
            "simulate-hom": ["--config", config],
            "fit-dip": [str(tmp_path / "hom_scan.csv")],
            "predict-visibility": ["--nu", "0.33"],
        }[command]
        out = tmp_path / "taken"
        out.write_text("kept\n")
        result = runner.invoke(main, [command, *args, "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error: ")
        assert str(out) in result.output
        assert out.read_text() == "kept\n"

    @pytest.mark.parametrize(
        "command, edits",
        [
            ("simulate-source", {"source": {"shots": 10**12}}),
            ("simulate-hom", {"hom": {"shots_per_point": 10**10}}),
        ],
        ids=["source-shots", "hom-shots_per_point"],
    )
    def test_run_too_large_for_memory_exits_2(self, tmp_path, command, edits):
        # Each run is valid, but its first large allocation exceeds a 16 GiB
        # cap on the address space, whatever the system's overcommit policy.
        doc = small_doc()
        for section, values in edits.items():
            doc[section].update(values)
        argv = [command, "--config", str(write_doc(tmp_path, doc)), "--out", str(tmp_path / "o")]
        cap = "import resource; resource.setrlimit(resource.RLIMIT_AS, (16 << 30,) * 2)"
        env = src_env()
        result = subprocess.run(
            [sys.executable, "-c", f"{cap}; from twinbeam.cli import main; main()", *argv],
            env=env, capture_output=True, text=True,
        )
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("error: out of memory")
        assert "shots" in result.stderr
        assert "Traceback" not in result.stderr
        assert not list((tmp_path / "o").glob("*events*"))

    def test_velocity_outside_the_event_format_exits_2_writing_no_events(self, tmp_path, runner):
        doc = small_doc()
        doc["source"]["grid_center"] = [2.0**20, 0.0, 0.0]
        out = tmp_path / "o"
        result = runner.invoke(
            main, ["simulate-source", "--config", str(write_doc(tmp_path, doc)), "--out", str(out)]
        )
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error: ") and "2**20 mm/s" in result.output
        assert list(out.iterdir()) == []

    def test_config_of_non_utf8_bytes_exits_2(self, tmp_path, runner):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"master_seed": "\xff"}')
        result = runner.invoke(
            main, ["simulate-source", "--config", str(path), "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 2, result.output
        assert result.output.startswith(f"error: {path}: not valid JSON")


@pytest.mark.parametrize("module", ["twinbeam", "twinbeam.cli"])
def test_import_leaves_out_scipy_and_jsonschema(module):
    probe = (
        f"import sys, {module}; print(sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('scipy', 'jsonschema')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=src_env(), capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("command", ["analyze-counts", "fit-dip", "predict-visibility"])
def test_analysis_commands_leave_out_numpy_random(tmp_path, runner, command):
    # Every error these commands write is in closed form: nothing is drawn.
    doc = small_doc()
    doc["hom"]["t2_values"] = list(np.linspace(-240, 240, 9))
    config = str(write_doc(tmp_path, doc))
    for simulate in ("simulate-source", "simulate-hom"):
        result = runner.invoke(main, [simulate, "--config", config, "--out", str(tmp_path / "in")])
        assert result.exit_code == 0, result.output
    argv = {
        "analyze-counts": ["--events", str(tmp_path / "in" / "events.csv"), "--config", config],
        "fit-dip": [str(tmp_path / "in" / "hom_scan.csv"), "--nu", "0.33", "--nu-std", "0.07"],
        "predict-visibility": ["--config", config],
    }[command]
    probe = (
        "import sys; from twinbeam.cli import main; "
        "main(sys.argv[1:], standalone_mode=False); print('numpy.random' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe, command, *argv, "--out", str(tmp_path / "out")],
        env=src_env(), capture_output=True, text=True, check=True,
    )
    assert result.stdout.splitlines()[-1] == "False"
