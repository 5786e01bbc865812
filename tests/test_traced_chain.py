"""The benchmark's tracer counts the counting chain's events.

``bench/tracer.py`` wraps the chain's steps at the names ``twinbeam.cli``
calls them by; a traced worker then reports counters that must match
what the run itself printed and wrote.
"""

import json
import re
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import run  # noqa: E402  (bench/run.py)


def test_traced_counting_chain_counts_its_events(tmp_path):
    shots = 400
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"master_seed": 7, "source": {"shots": shots}}))
    source, counts = tmp_path / "source", tmp_path / "counts"
    deadline = time.perf_counter() + 120
    simulated = run.run_step(0, tmp_path, "simulate-source", [
        "simulate-source", "--config", str(config), "--out", str(source),
    ], source, traced=True, deadline=deadline)
    analyzed = run.run_step(0, tmp_path, "analyze-counts", [
        "analyze-counts", "--events", str(source / "events.csv"), "--config", str(config),
        "--out", str(counts),
    ], counts, traced=True, deadline=deadline)
    assert simulated["code"] == 0 and analyzed["code"] == 0

    printed = re.search(r"wrote (\d+) shots, (\d+) detected atoms",
                        (tmp_path / "simulate-source.log").read_text())
    assert int(printed[1]) == shots
    events = int(printed[2])
    assert events > 0
    written = simulated["counters"]
    assert written["simulate.counting_shots"] == shots
    assert written["simulate.write_events"] == events
    assert written["simulate.write_bytes"] == (source / "events.csv").stat().st_size
    binned = analyzed["counters"]
    assert binned["analysis.events_binned"] + binned["analysis.events_dropped"] == events
