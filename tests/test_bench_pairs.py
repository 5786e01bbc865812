"""Tests for the summaries of ``tools/bench_pairs.py``, on fixed numbers; no benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_summarise_gives_linear_quartiles_and_pair_wins():
    parent = [0.30, 0.20, 0.40, 0.25, 0.35]
    change = [0.10, 0.25, 0.15, 0.12, 0.20]
    summary = bench_pairs.summarise(parent, change, 0.25)
    # Sorted parent: 0.20 0.25 0.30 0.35 0.40, so q1, median and q3 sit on runs.
    assert summary["parent"] == {"median": 0.3, "q1": 0.25, "q3": 0.35, "iqr": 0.1}
    # Sorted change: 0.10 0.12 0.15 0.20 0.25.
    assert summary["change"] == {"median": 0.15, "q1": 0.12, "q3": 0.2, "iqr": 0.08}
    # Pair 2 (0.20 -> 0.25) is the one the change lost.
    assert summary["change_wins"] == "4/5"


def test_summarise_interpolates_and_counts_ties_as_losses():
    summary = bench_pairs.summarise([1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 5.0, 5.0], 0.25)
    assert summary["parent"] == {"median": 2.5, "q1": 1.75, "q3": 3.25, "iqr": 1.5}
    assert summary["change_wins"] == "1/4"


def test_summarise_honours_higher_is_better():
    assert bench_pairs.summarise([1.0, 2.0], [2.0, 1.0], 0.25, better="higher")["change_wins"] == "1/2"
    assert bench_pairs.summarise([1.0, 2.0], [3.0, 4.0], 0.25, better="higher")["change_wins"] == "2/2"


def test_summarise_rejects_unpaired_runs():
    with pytest.raises(ValueError):
        bench_pairs.summarise([1.0, 2.0], [1.0], 0.25)


@pytest.mark.parametrize(
    "parent,change,better,verdict",
    [
        # Parent median 1.0, IQR 0.02: a change median of 1.2 is within 25 %, 1.3 is not.
        ([0.98, 0.99, 1.0, 1.01, 1.02], [1.18, 1.19, 1.2, 1.21, 1.22], "lower", "held"),
        ([0.98, 0.99, 1.0, 1.01, 1.02], [1.28, 1.29, 1.3, 1.31, 1.32], "lower", "regressed"),
        # Higher is better: a drop from 1.0 to 0.7 is worse by 30 %.
        ([0.98, 0.99, 1.0, 1.01, 1.02], [0.68, 0.69, 0.7, 0.71, 0.72], "higher", "regressed"),
        ([0.98, 0.99, 1.0, 1.01, 1.02], [1.18, 1.19, 1.2, 1.21, 1.22], "higher", "held"),
        # Parent IQR 0.6 about a median of 1.0 is wider than the bound.
        ([0.5, 0.7, 1.0, 1.3, 1.5], [0.6, 0.8, 0.9, 1.2, 1.4], "lower", "unresolved"),
        # ... unless every change run beats every parent run (parent IQR 0.38).
        ([0.9, 0.92, 1.0, 1.3, 1.5], [0.8, 0.82, 0.85, 0.87, 0.89], "lower", "held"),
        # Better by more than 25 % is an improvement in either direction.
        ([0.98, 0.99, 1.0, 1.01, 1.02], [0.68, 0.69, 0.7, 0.71, 0.72], "lower", "improved"),
        ([0.98, 0.99, 1.0, 1.01, 1.02], [1.28, 1.29, 1.3, 1.31, 1.32], "higher", "improved"),
        # A median 19.5 % lower than the parent's holds against a 25 % bound.
        ([1.16, 1.17, 1.18, 1.19, 1.2], [0.93, 0.94, 0.95, 0.96, 0.97], "lower", "held"),
    ],
)
def test_summarise_verdict_holds_the_change_to_the_bound(parent, change, better, verdict):
    assert bench_pairs.summarise(parent, change, 0.25, better)["verdict"] == verdict


def test_summarise_verdict_is_relative_to_the_parent_median():
    # 0.1 of a 50 MB median is 5 MB: 54.9 holds, 55.1 regresses.
    parent = [49.9, 50.0, 50.1]
    assert bench_pairs.summarise(parent, [54.8, 54.9, 55.0], 0.1)["verdict"] == "held"
    assert bench_pairs.summarise(parent, [55.0, 55.1, 55.2], 0.1)["verdict"] == "regressed"


def test_outputs_summary_names_each_file_that_differs():
    run = {"simulate-hom": {"hom_scan.csv": "aa", "manifest.json": "bb"}, "fit-dip": {"x": "cc"}}
    moved = {"simulate-hom": {"hom_scan.csv": "aa", "manifest.json": "b2"}, "fit-dip": {"x": "cc"}}
    same = bench_pairs.outputs_summary([run, run], [run, run])
    assert same == {"identical": True, "changed": [], "sha256": run}
    differ = bench_pairs.outputs_summary([run, run], [moved, moved])
    assert differ["identical"] is False
    assert differ["changed"] == ["simulate-hom/manifest.json"]
    # A file that only one side wrote differs too.
    extra = {**run, "fit-dip": {"x": "cc", "y": "dd"}}
    assert bench_pairs.outputs_summary([run], [extra])["changed"] == ["fit-dip/y"]


def test_src_lines_counts_python_files_under_src_only(tmp_path):
    package = tmp_path / "src" / "pkg"
    (package / "sub").mkdir(parents=True)
    (package / "a.py").write_text("import os\n\nx = 1\n")
    (package / "sub" / "b.py").write_text("y = 2\nz = 3")  # no final newline, as wc -l
    (package / "notes.txt").write_text("not\ncounted\n")
    (tmp_path / "setup.py").write_text("outside src\n")
    assert bench_pairs.src_lines(tmp_path) == 4
