"""Seconds-long smoke test of the benchmark harness.

Run with ``python3 -m pytest bench`` from the repository root.  It checks
that ``BENCHMARK.json`` names what ``run.py`` reports, the span arithmetic
of the tracer, the independent likelihood, one traced worker on a real
CLI step, and that the harness refuses to run without the sources.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import checks
import run
import tracer


def test_benchmark_json_matches_reported_metrics():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert doc["paths"] == ["bench"]
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == [
        (n, run.layer_unit(n)) for n in run.per_layer_names()
    ]


def test_self_time_subtracts_children_and_counts_refits():
    spans = [
        [0, None, "cli.analyze-counts", 0, 100, None],
        [1, 0, "fitting.degeneracy", 10, 60, None],
        [2, 1, "fitting.degeneracy", 20, 30, "FitFailureError"],
        [3, 1, "fitting.degeneracy", 30, 45, None],
        [4, 0, tracer.HOOK, 60, 70, None],
    ]
    layers, _ = tracer.merge([(spans, {})])
    assert layers["cli.analyze-counts"]["self_ns"] == 100 - 50 - 10
    assert layers["fitting.degeneracy"]["self_ns"] == 50 + 10 + 15 - 25
    metrics = tracer.layer_metrics(layers, {})
    assert metrics["fitting.degeneracy_refits"] == 2
    assert metrics["fitting.degeneracy_refits_failed"] == 1


def test_negative_binomial_likelihood_reduces_to_thermal():
    occurrences = np.array([50, 30, 15, 5])
    mean = 0.7
    thermal = sum(occ * (n * math.log(mean) - (n + 1) * math.log1p(mean))
                  for n, occ in enumerate(occurrences))
    assert math.isclose(checks.nb_log_likelihood(occurrences, mean, 1.0), thermal, rel_tol=1e-12)


def test_traced_fit_dip_worker(tmp_path):
    hom = {"t0": 0.0, "sigma_m": 86.0, "nu": 0.33, "eta": 0.25}
    t2 = np.linspace(-300.0, 300.0, 13)
    scan = tmp_path / "hom_scan.csv"
    corr = checks.hom_expected(t2, hom)
    scan.write_text("t2_us,corr,err\n" + "".join(
        f"{t!r},{c!r},0.001\n" for t, c in zip(t2.tolist(), corr.tolist())))
    out = tmp_path / "dip"
    argv = ["fit-dip", str(scan), "--nu", "0.33", "--nu-std", "0.07", "--out", str(out)]
    result = run.run_step(0, tmp_path, "fit-dip", argv, out, traced=True,
                          deadline=run.time.perf_counter() + 60)
    assert result["code"] == 0
    assert checks.check_fit_dip(out, hom, 0.07) == []
    names = {json.loads(line)[2] for line in (tmp_path / "fit-dip.spans.jsonl").open()}
    assert {"cli.fit-dip", "fitting.dip", "fitting.predict"} <= names


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "hom", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
