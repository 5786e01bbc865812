"""Cold-process benchmark of twinbeam: counting, HOM and Fock-oracle workloads.

Usage (from the root of a checkout):

    python3 bench/run.py --workload counting --seed 1 --seconds 25 --trace 0

A run repeats whole rounds of its workload until ``--seconds`` have
passed.  Every step of a round is a fresh interpreter (``worker.py``),
started one at a time, which imports ``twinbeam.cli`` from this
checkout's ``src/`` and then runs one CLI command or the Fock-oracle
library round.  After each round the outputs are checked against values
computed in ``checks.py`` and ``oracle.py``, and hashed.

``--trace 0`` reports the end-to-end metrics (medians over rounds):
``wall_s``, ``setup_s``, ``run_s`` and ``peak_rss_mb``.  ``--trace 1``
alternates untraced and traced rounds and reports the per-layer metrics
of ``tracer.py`` plus ``-X importtime`` figures; the traced outputs must
be byte-identical to the untraced ones.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A report with the SHA-256 of
every output file is written to ``bench/out/<workload>/report.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import tracer
from oracle import KNOWN_FAULTS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# A run must end within 180 s: no round starts after ROUND_DEADLINE_S, and
# every process is killed at RUN_DEADLINE_S.
ROUND_DEADLINE_S = 120.0
RUN_DEADLINE_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
IMPORT_MODULES = [
    "twinbeam.distributions", "twinbeam.fock", "twinbeam.simulate", "twinbeam.analysis",
    "twinbeam.fitting", "twinbeam.config", "twinbeam.cli", "numpy", "scipy.stats",
    "scipy.optimize", "scipy.linalg", "scipy.sparse", "jsonschema", "click",
]
IMPORTTIME_REPEATS = 3


def layer_unit(name: str) -> str:
    if name == "fock.truncation_loss_max":
        return "probability"
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_s", "s"), ("_mb", "MB")):
        if name.endswith(suffix) or f"{suffix}_per_" in name:
            return unit
    return "count"


def shipped_config() -> dict:
    return json.loads((ROOT / "configs" / "default.json").read_text())


def per_layer_names() -> list[str]:
    names = [f"import.{m}_ms" for m in IMPORT_MODULES]
    names += list(tracer.layer_metrics({}, {}))
    return names + ["trace.overhead_s"]


class Counting:
    """``simulate-source`` then ``analyze-counts`` on the shipped geometry."""

    shots = 18_760  # ten times the shipped 1,876

    def __init__(self, seed: int, run_dir: Path):
        self.seed = seed
        self.shipped = shipped_config()
        self.config = run_dir / "config.json"
        self.config.write_text(json.dumps({"master_seed": seed, "source": {"shots": self.shots}}))

    def steps(self, rd: Path) -> list:
        return [
            ("simulate-source", ["simulate-source", "--config", str(self.config),
                                 "--out", str(rd / "source")], rd / "source"),
            ("analyze-counts", ["analyze-counts", "--events", str(rd / "source" / "events.csv"),
                                "--config", str(self.config), "--out", str(rd / "counts")],
             rd / "counts"),
        ]

    def check(self, step: str, out_dir: Path) -> list[str]:
        if step == "simulate-source":
            return checks.check_simulate_source(out_dir, self.shots)
        s = self.shipped
        return checks.check_analyze_counts(out_dir, self.shots, s["source"], s["grid"],
                                           s["analysis"]["min_mean"], self.seed)


class Hom:
    """``simulate-hom`` then ``fit-dip --nu --nu-std`` at nu = 0.33, eta = 0.25."""

    scan = {
        "t2_values": [float(t) for t in np.linspace(-300.0, 300.0, 25)],
        "nu": 0.33,
        "eta": 0.25,
        "shots_per_point": 3000,
    }
    nu_std = 0.07

    def __init__(self, seed: int, run_dir: Path):
        shipped = shipped_config()["hom"]
        self.hom = {"t0": shipped["t0"], "sigma_m": shipped["sigma_m"], **self.scan}
        self.config = run_dir / "config.json"
        self.config.write_text(json.dumps({"master_seed": seed, "hom": self.scan}))

    def steps(self, rd: Path) -> list:
        nu = str(self.scan["nu"])
        return [
            ("simulate-hom", ["simulate-hom", "--config", str(self.config),
                              "--out", str(rd / "hom")], rd / "hom"),
            ("fit-dip", ["fit-dip", str(rd / "hom" / "hom_scan.csv"), "--nu", nu,
                         "--nu-std", str(self.nu_std), "--out", str(rd / "dip")], rd / "dip"),
        ]

    def check(self, step: str, out_dir: Path) -> list[str]:
        if step == "simulate-hom":
            return checks.check_simulate_hom(out_dir, self.hom)
        return checks.check_fit_dip(out_dir, self.hom, self.nu_std)


class FockOracle:
    """One library round of ``oracle.py``; its checks run inside the worker."""

    def __init__(self, seed: int, run_dir: Path):
        pass

    def steps(self, rd: Path) -> list:
        return [("fock-oracle", None, rd / "oracle")]

    def check(self, step: str, out_dir: Path) -> list[str]:
        return []


WORKLOADS = {"counting": Counting, "hom": Hom, "fock-oracle": FockOracle}


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def hash_tree(out_dir: Path) -> dict:
    return {p.name: checks.sha256(p) for p in sorted(out_dir.iterdir()) if p.is_file()}


def remaining(deadline: float) -> float:
    return max(1.0, deadline - time.perf_counter())


def run_step(seed: int, rd: Path, name: str, argv, out_dir: Path, traced: bool,
             deadline: float) -> dict:
    spec_path = rd / f"{name}.spec.json"
    spec = {"src": str(SRC), "step": name, "argv": argv, "seed": seed, "out": str(out_dir),
            "trace": traced, "result": str(rd / f"{name}.result.json"),
            "spans": str(rd / f"{name}.spans.jsonl")}
    spec_path.write_text(json.dumps(spec))
    with open(rd / f"{name}.log", "w") as log:
        try:
            proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(spec_path)],
                                  env=worker_env(), stdout=log, stderr=subprocess.STDOUT,
                                  timeout=remaining(deadline))
        except subprocess.TimeoutExpired:
            return {"code": "timeout", "worker_failed": True}
    result_path = Path(spec["result"])
    if proc.returncode != 0 or not result_path.exists():
        return {"code": proc.returncode, "worker_failed": True}
    return json.loads(result_path.read_text())


def run_round(workload, seed: int, rd: Path, traced: bool, deadline: float) -> dict:
    rd.mkdir(parents=True)
    steps = workload.steps(rd)
    begin = time.perf_counter()
    results = [run_step(seed, rd, name, argv, out, traced, deadline) for name, argv, out in steps]
    wall_s = time.perf_counter() - begin

    ops = []  # per step: attempted, failures [(operation, tag, message)]
    for (name, argv, out), result in zip(steps, results):
        if result.get("worker_failed") or result["code"] != 0:
            ops.append({"step": name, "attempted": result.get("attempted", 1),
                        "failures": [(0, "exit", f"{name} exited with {result['code']}")]})
            continue
        try:
            messages = workload.check(name, out)
        except Exception as exc:  # a check that cannot read the outputs fails them
            messages = [f"check raised {exc!r}"]
        failures = [(0, "check", m) for m in messages]
        failures += [tuple(f) for f in result.get("failures", [])]
        ops.append({"step": name, "attempted": result.get("attempted", 1), "failures": failures,
                    "outputs": hash_tree(out)})
    layers = None
    if traced:
        workers = []
        for (name, _, _), result in zip(steps, results):
            spans_path = rd / f"{name}.spans.jsonl"
            spans = [json.loads(line) for line in spans_path.open()] if spans_path.exists() else []
            workers.append((spans, result.get("counters", {})))
        layers = tracer.layer_metrics(*tracer.merge(workers))
    return {
        "traced": traced,
        "wall_s": wall_s,
        "run_s": sum(r.get("run_s", 0.0) for r in results),
        "import_s": [r["import_s"] for r in results if "import_s" in r],
        "peak_rss_kb": max((r.get("peak_rss_kb", 0) for r in results), default=0),
        "ops": ops,
        "layers": layers,
    }


def import_times(deadline: float) -> dict:
    """Median cumulative ``-X importtime`` of each module, in ms (0 if never imported)."""
    samples = {m: [] for m in IMPORT_MODULES}
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import twinbeam.cli"],
                              env=worker_env(), capture_output=True, text=True,
                              timeout=remaining(deadline), check=True)
        seen = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                seen.setdefault(parts[2].strip(), int(parts[1]) / 1e3)
        for module in IMPORT_MODULES:
            samples[module].append(seen.get(module, 0.0))
    return {f"import.{m}_ms": statistics.median(v) for m, v in samples.items()}


def tally(rounds: list, reference: dict) -> tuple[int, int, bool]:
    """Attempted and failed operations, and whether every failure is a known fault.

    ``reference`` maps each step to the output hashes of the first round;
    a later round, traced or not, must reproduce them byte for byte.
    """
    attempted = failed = 0
    correct = True
    for rnd in rounds:
        for op in rnd["ops"]:
            failures = list(op["failures"])
            if "outputs" in op and op["outputs"] != reference.get(op["step"]):
                failures.append((0, "nondeterministic",
                                 f"{op['step']} outputs differ from round 0"))
            attempted += op["attempted"]
            failed += len({f[0] for f in failures})
            correct &= all(f[1] in KNOWN_FAULTS for f in failures)
    return attempted, failed, correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.perf_counter() + RUN_DEADLINE_S
    if not (SRC / "twinbeam" / "__init__.py").is_file():
        print(f"error: no twinbeam sources under {SRC}", file=sys.stderr)
        return 2
    # Compile the byte code once, untimed, as any installed copy would have it.
    warm = subprocess.run([sys.executable, "-c", "import twinbeam.cli"], env=worker_env(),
                          capture_output=True, text=True, timeout=remaining(deadline))
    if warm.returncode != 0:
        print(f"error: cannot import twinbeam.cli:\n{warm.stderr}", file=sys.stderr)
        return 2

    run_dir = OUT / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, run_dir)

    rounds = []
    start = time.perf_counter()
    while True:
        index = len(rounds)
        rnd = run_round(workload, args.seed, run_dir / f"round-{index}",
                        traced=bool(args.trace) and index % 2 == 1, deadline=deadline)
        rounds.append(rnd)
        if index > 0:  # the report keeps the first round's files only
            shutil.rmtree(run_dir / f"round-{index}")
        elapsed = time.perf_counter() - start
        enough = elapsed >= args.seconds and (not args.trace or len(rounds) >= 2)
        if enough or elapsed + rnd["wall_s"] > ROUND_DEADLINE_S:
            break

    reference = {op["step"]: op.get("outputs") for op in rounds[0]["ops"]}
    attempted, failed, correct = tally(rounds, reference)
    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        untraced = [r for r in rounds if not r["traced"]]
        names = traced[0]["layers"].keys()
        metrics = {n: statistics.median(r["layers"][n] for r in traced) for n in names}
        metrics.update(import_times(deadline))
        metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                       - statistics.median(r["wall_s"] for r in untraced))
        metrics = {n: {"value": metrics[n], "unit": layer_unit(n)} for n in per_layer_names()}
    else:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "setup_s": statistics.median(s for r in rounds for s in r["import_s"]),
            "run_s": statistics.median(r["run_s"] for r in rounds),
            "peak_rss_mb": max(r["peak_rss_kb"] for r in rounds) * 1024 / 1e6,
        }
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END.items()}

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": attempted, "failed": failed, "correct": correct,
        "outputs_sha256": reference, "metrics": metrics,
        "rounds": [{k: v for k, v in r.items() if k != "layers"} for r in rounds],
    }
    (run_dir / "report.json").write_text(json.dumps(report, indent=2) + "\n")

    print(f"{args.workload} seed={args.seed} rounds={len(rounds)} "
          f"attempted={attempted} failed={failed} correct={correct}")
    for op in rounds[0]["ops"]:
        for _, tag, message in op["failures"][:5]:
            print(f"  {op['step']} [{tag}] {message}")
    for name, metric in metrics.items():
        print(f"  {name:42s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
