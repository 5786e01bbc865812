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
    summary = bench_pairs.summarise(parent, change)
    # Sorted parent: 0.20 0.25 0.30 0.35 0.40, so q1, median and q3 sit on runs.
    assert summary["parent"] == {"median": 0.3, "q1": 0.25, "q3": 0.35, "iqr": 0.1}
    # Sorted change: 0.10 0.12 0.15 0.20 0.25.
    assert summary["change"] == {"median": 0.15, "q1": 0.12, "q3": 0.2, "iqr": 0.08}
    # Pair 2 (0.20 -> 0.25) is the one the change lost.
    assert summary["change_wins"] == "4/5"


def test_summarise_interpolates_and_counts_ties_as_losses():
    summary = bench_pairs.summarise([1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 5.0, 5.0])
    assert summary["parent"] == {"median": 2.5, "q1": 1.75, "q3": 3.25, "iqr": 1.5}
    assert summary["change_wins"] == "1/4"


def test_summarise_honours_higher_is_better():
    assert bench_pairs.summarise([1.0, 2.0], [2.0, 1.0], better="higher")["change_wins"] == "1/2"
    assert bench_pairs.summarise([1.0, 2.0], [3.0, 4.0], better="higher")["change_wins"] == "2/2"


def test_summarise_rejects_unpaired_runs():
    with pytest.raises(ValueError):
        bench_pairs.summarise([1.0, 2.0], [1.0])


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
