"""Alternating parent/change runs of the benchmark, summarised as ``BENCH_<PR>.json``.

Usage (from the root of a checkout):

    python3 tools/bench_pairs.py --parent HEAD --pr <N> --pairs 10 --seeds 1 5

The parent side is ``git archive <parent>``; the change side is a copy of
the working tree's ``src/``.  Both sides then get the working tree's
``bench/`` and ``configs/``, so only ``src/`` differs between them.  For
every seed and every workload of ``BENCHMARK.json``, each pair runs
``python3 bench/run.py --workload <w> --seed <s> --seconds 25 --trace 0``
(the run length is ``BENCHMARK.json``'s ``run_seconds``) once on each
side, one run at a time; the parent goes first in pairs 1, 3, 5, ...
(counting from 1) and second in the others, so a drift of the machine's
speed falls on both sides alike.  The two trees live in a temporary
directory (under ``$TMPDIR``), removed at the end.

The first seed fills ``end_to_end``, ``runs`` and ``outputs_sha256``; every
further seed is a holdout with the same three keys under
``holdout_seeds``.  ``src_lines`` holds each side's line count of
``src/**/*.py``.  Medians and quartiles are numpy's linear percentiles
over each side's runs; ``change_wins`` counts the pairs where the change
read better, and ``verdict`` holds the change to the metric's ``bound``
(see :func:`summarise`).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SHARED = ("bench", "configs")  # the working tree's copies run on both sides
SIDES = ("parent", "change")


def summarise(parent: list[float], change: list[float], bound: float,
              better: str = "lower") -> dict:
    """Median, quartiles and IQR of each side, the pairs the change won, and a verdict.

    ``bound`` is the metric's relative bound from ``BENCHMARK.json``.  The
    verdict reads ``regressed`` when the change median is worse than the
    parent median by more than ``bound`` of it, and ``improved`` when it is
    better by more than that; ``unresolved`` when the parent's IQR exceeds
    ``bound`` of its median, unless every change run beats every parent
    run; and ``held`` otherwise.
    """

    def spread(values):
        q1, median, q3 = np.percentile(values, [25, 50, 75])
        return {"median": round(float(median), 4), "q1": round(float(q1), 4),
                "q3": round(float(q3), 4), "iqr": round(float(q3 - q1), 4)}

    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (c - p) < 0.0 for p, c in zip(parent, change, strict=True))
    sides = {"parent": spread(parent), "change": spread(change)}
    allowed = bound * abs(sides["parent"]["median"])
    beats_all = max(sign * c for c in change) < min(sign * p for p in parent)
    worse_by = sign * (sides["change"]["median"] - sides["parent"]["median"])
    if worse_by > allowed:
        verdict = "regressed"
    elif -worse_by > allowed:
        verdict = "improved"
    elif sides["parent"]["iqr"] > allowed and not beats_all:
        verdict = "unresolved"
    else:
        verdict = "held"
    return {**sides, "change_wins": f"{wins}/{len(parent)}", "verdict": verdict}


def outputs_summary(parent: list[dict], change: list[dict]) -> dict:
    """Whether every run of both sides wrote the same bytes, and which files did not.

    Each run maps step -> file -> SHA-256, as ``bench/run.py`` reports it.
    """
    flat = [{f"{step}/{name}": digest for step, hashes in run.items()
             for name, digest in hashes.items()} for run in parent + change]
    paths = set().union(*flat)
    changed = sorted(p for p in paths if len({run.get(p) for run in flat}) > 1)
    return {"identical": not changed, "changed": changed, "sha256": change[0]}


def src_lines(tree: Path) -> int:
    """Total line count (newlines, as ``wc -l``) of the ``src/**/*.py`` files under ``tree``."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src").rglob("*.py"))


def prepare(parent_ref: str, work: Path) -> dict:
    """The two trees to run, each with the working tree's ``bench/`` and ``configs/``."""
    trees = {side: work / side for side in SIDES}
    trees["parent"].mkdir(parents=True)
    subprocess.run(["git", "archive", "--output", str(work / "parent.tar"), parent_ref],
                   cwd=ROOT, check=True)
    subprocess.run(["tar", "-xf", str(work / "parent.tar"), "-C", str(trees["parent"])],
                   check=True)
    ignore = shutil.ignore_patterns("__pycache__", "out")
    shutil.copytree(ROOT / "src", trees["change"] / "src", ignore=ignore)
    for tree in trees.values():
        for name in SHARED:
            shutil.rmtree(tree / name, ignore_errors=True)
            shutil.copytree(ROOT / name, tree / name, ignore=ignore)
    return trees


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run: its end-to-end values, correctness and output hashes."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, check=True, capture_output=True, text=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads((tree / "bench" / "out" / workload / "report.json").read_text())
    return {"metrics": {n: m["value"] for n, m in result["metrics"].items()},
            "correct": result["correct"], "failed": result["failed"],
            "outputs": report["outputs_sha256"]}


def run_pairs(trees: dict, workload: str, seed: int, pairs: int, seconds: float) -> dict:
    """``pairs`` alternating runs of each side, parent first in even-indexed pairs."""
    runs = {side: [] for side in SIDES}
    for pair in range(pairs):
        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
            runs[side].append(run_once(trees[side], workload, seed, seconds))
            print(f"{workload} seed={seed} pair={pair + 1}/{pairs} {side}: "
                  f"{runs[side][-1]['metrics']}", flush=True)
    return runs


def summarise_workloads(all_runs: dict, metrics: list[dict]) -> dict:
    """The ``end_to_end``, ``runs`` and ``outputs_sha256`` keys over all workloads."""
    doc = {"end_to_end": {}, "runs": {}, "outputs_sha256": {}}
    for workload, runs in all_runs.items():
        values = {m["name"]: {side: [round(r["metrics"][m["name"]], 4) for r in runs[side]]
                              for side in SIDES} for m in metrics}
        doc["end_to_end"][workload] = {
            m["name"]: summarise(values[m["name"]]["parent"], values[m["name"]]["change"],
                                 m["bound"], m["better"]) for m in metrics
        }
        doc["end_to_end"][workload]["correct"] = all(
            r["correct"] for side in SIDES for r in runs[side])
        doc["end_to_end"][workload]["failed"] = sum(
            r["failed"] for side in SIDES for r in runs[side])
        doc["runs"][workload] = values
        doc["outputs_sha256"][workload] = outputs_summary(
            [r["outputs"] for r in runs["parent"]], [r["outputs"] for r in runs["change"]])
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent tree")
    parser.add_argument("--pr", required=True, type=int, help="writes BENCH_<PR>.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    parent_commit = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=ROOT,
                                   check=True, capture_output=True, text=True).stdout.strip()
    doc = {
        "parent_commit": parent_commit,
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                   f"Python {platform.python_version()}, numpy {np.__version__}",
        "command": "python3 bench/run.py --workload <workload> --seed <seed> "
                   f"--seconds {seconds:g} --trace 0",
        "method": f"{args.pairs} alternating parent/change pairs per workload and seed, "
                  "parent first in pairs 1, 3, 5, ... counting from 1; the parent a git "
                  f"archive of {parent_commit}, the change a copy of the working tree's src/, "
                  "both with the working tree's bench/ and configs/; median and quartiles "
                  "(numpy linear percentiles) over each side's runs; change_wins counts pairs "
                  "where the change read better; verdict is regressed if the change median is "
                  "worse than the parent's by more than the metric's relative bound, improved "
                  "if it is better by more than that bound, unresolved "
                  "if the parent's IQR exceeds that bound of its median (unless every change run "
                  "beats every parent run), else held",
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as work:
        trees = prepare(args.parent, Path(work))
        doc["src_lines"] = {side: src_lines(trees[side]) for side in SIDES}
        for index, seed in enumerate(args.seeds):
            all_runs = {w: run_pairs(trees, w, seed, args.pairs, seconds) for w in workloads}
            summary = summarise_workloads(all_runs, spec["end_to_end"])
            if index == 0:
                doc.update(summary)
            else:
                doc.setdefault("holdout_seeds", {})[str(seed)] = summary
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
