"""Spans around twinbeam's public functions, recorded from outside the program.

A traced worker replaces each function listed in :data:`WRAPPED` by a
wrapper, at the name the calling module looks it up under, so nothing
under ``src/`` changes.  Each call becomes a span (name, start, end,
parent span id, and the exception type if the call raised).  Counters
read at the same boundary (shots, events, resamples, ...) are computed
after the span has closed, inside a ``trace.hook`` span, so their cost is
charged to no layer.  Spans stay in memory until the worker ends.

:func:`layer_metrics` turns the spans and counters of one round into the
per-layer metrics: a layer's self time is the summed duration of its spans
minus the part their child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time

HOOK = "trace.hook"


def _events_in(path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


def _csv_counters(prefix: str):
    def count(args, result):
        return {f"{prefix}_events": _events_in(args["csv_path"]),
                f"{prefix}_bytes": os.path.getsize(args["csv_path"])}
    return count


# (module, attribute, span name, counter function of (bound arguments, result))
WRAPPED = [
    ("twinbeam.cli", "load_config", "config.load", None),
    ("twinbeam.cli", "simulate_counting_run", "simulate.counting",
     lambda a, r: {"simulate.counting_shots": a["config"].shots}),
    ("twinbeam.cli", "write_event_table", "simulate.write", _csv_counters("simulate.write")),
    ("twinbeam.cli", "read_event_table", "simulate.read", _csv_counters("simulate.read")),
    ("twinbeam.cli", "bin_events", "analysis.bin",
     lambda a, r: {"analysis.events_binned": int(r.counts.sum()),
                   "analysis.events_dropped": int(r.dropped.sum())}),
    ("twinbeam.cli", "cell_histograms", "analysis.histograms", None),
    ("twinbeam.cli", "filter_cells", "analysis.histograms",
     lambda a, r: {"analysis.cells_kept": len(r)}),
    ("twinbeam.cli", "sum_histograms", "analysis.histograms", None),
    ("twinbeam.cli", "pooled_counts_histogram", "analysis.histograms", None),
    ("twinbeam.cli", "bootstrap_std", "analysis.bootstrap",
     lambda a, r: {"analysis.bootstrap_resamples": a["resamples"]}),
    ("twinbeam.cli", "fit_degeneracy", "fitting.degeneracy", None),
    ("twinbeam.cli", "thermal_pmf", "distributions.thermal_pmf", None),
    ("twinbeam.cli", "poisson_pmf", "distributions.poisson_pmf", None),
    ("twinbeam.cli", "multimode_pmf", "distributions.multimode_pmf", None),
    ("twinbeam.cli", "simulate_hom_run", "simulate.hom",
     lambda a, r: {"simulate.hom_shots":
                   len(a["config"].t2_values) * a["config"].shots_per_point}),
    ("twinbeam.cli", "write_hom_events", "simulate.write_hom", None),
    ("twinbeam.cli", "correlation_scan", "simulate.correlation_scan",
     lambda a, r: {"simulate.scan_points": len(r)}),
    ("twinbeam.cli", "fit_gaussian_dip", "fitting.dip",
     lambda a, r: {"fitting.dip_iterations": r.n_iterations}),
    ("twinbeam.cli", "propagate_visibility_uncertainty", "fitting.predict", None),
    ("twinbeam.simulate", "shot_rng", "simulate.shot_rng", None),
    ("twinbeam.simulate", "hom_joint_pmf", "fock.hom_joint_pmf",
     lambda a, r: {"fock.truncation_loss_max": 1.0 - float(r.probs.sum())}),
    ("twinbeam.simulate", "bootstrap_std", "analysis.bootstrap",
     lambda a, r: {"analysis.bootstrap_resamples": a["resamples"]}),
    ("twinbeam.fitting", "fit_degeneracy", "fitting.degeneracy", None),
    ("twinbeam.fitting", "multimode_log_pmf", "distributions.multimode_log_pmf", None),
    ("twinbeam.fock", "hom_joint_pmf", "fock.hom_joint_pmf",
     lambda a, r: {"fock.truncation_loss_max": 1.0 - float(r.probs.sum())}),
    ("twinbeam.fock", "visibility_oracle", "fock.visibility_oracle", None),
    ("twinbeam.fock", "thermal_input_visibility", "fock.thermal_input_visibility", None),
    ("twinbeam.distributions", "thermal_pmf", "distributions.thermal_pmf", None),
    ("twinbeam.distributions", "poisson_pmf", "distributions.poisson_pmf", None),
    ("twinbeam.distributions", "multimode_pmf", "distributions.multimode_pmf", None),
    ("twinbeam.distributions", "binomial_thin", "distributions.binomial_thin", None),
]


def _accumulate(counters: dict, key: str, value) -> None:
    """Counters add up, except ``*_max`` ones, which keep the largest value."""
    if key.endswith("_max"):
        counters[key] = max(counters.get(key, value), value)
    else:
        counters[key] = counters.get(key, 0) + value


class Tracer:
    """In-memory span recorder; one per worker process."""

    def __init__(self):
        self.spans = []  # [id, parent, name, start_ns, end_ns, error]
        self.counters = {}
        self._stack = []

    def open(self, name: str) -> list:
        span = [len(self.spans), self._stack[-1] if self._stack else None, name,
                time.perf_counter_ns(), None, None]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def close(self, span: list, error: str = None) -> None:
        span[4] = time.perf_counter_ns()
        span[5] = error
        self._stack.pop()

    def count(self, values: dict) -> None:
        for key, value in values.items():
            _accumulate(self.counters, key, value)

    def wrap(self, module, attr: str, name: str, counter=None) -> None:
        fn = getattr(module, attr)
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(span, type(exc).__name__)
                raise
            self.close(span)
            if counter is not None:
                hook = self.open(HOOK)
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.count(counter(bound.arguments, result))
                self.close(hook)
            return result

        traced.__wrapped__ = fn
        setattr(module, attr, traced)

    def install(self) -> None:
        for module_name, attr, name, counter in WRAPPED:
            self.wrap(importlib.import_module(module_name), attr, name, counter)


def _self_times(spans: list) -> dict:
    """Per layer: summed self time (ns), call count, inclusive time (ns)."""
    by_id = {s[0]: s for s in spans}
    child_ns = {}
    for span in spans:
        if span[1] is not None:
            child_ns[span[1]] = child_ns.get(span[1], 0) + span[4] - span[3]
    layers = {}
    for span in spans:
        duration = span[4] - span[3]
        layer = layers.setdefault(span[2], {"self_ns": 0, "calls": 0, "incl_ns": 0})
        layer["self_ns"] += duration - child_ns.get(span[0], 0)
        layer["calls"] += 1
        layer["incl_ns"] += duration
    refits = [s for s in spans if s[2] == "fitting.degeneracy" and s[1] is not None
              and by_id[s[1]][2] == "fitting.degeneracy"]
    degeneracy = layers.setdefault("fitting.degeneracy",
                                   {"self_ns": 0, "calls": 0, "incl_ns": 0})
    degeneracy["refits"] = len(refits)
    degeneracy["refits_failed"] = sum(s[5] == "FitFailureError" for s in refits)
    return layers


def merge(rounds: list) -> tuple:
    """Sum the layer tables and counters of several workers of one round."""
    layers, counters = {}, {}
    for spans, worker_counters in rounds:
        for name, values in _self_times(spans).items():
            total = layers.setdefault(name, {})
            for key, value in values.items():
                total[key] = total.get(key, 0) + value
        for key, value in worker_counters.items():
            _accumulate(counters, key, value)
    return layers, counters


def layer_metrics(layers: dict, counters: dict) -> dict:
    """Per-layer metrics of one round; a layer the round never entered reads 0."""

    def self_ns(name):
        return layers.get(name, {}).get("self_ns", 0)

    def per(numerator_ns, denominator, scale):
        return numerator_ns / scale / denominator if denominator else 0.0

    def per_call(name, scale):
        return per(self_ns(name), layers.get(name, {}).get("calls", 0), scale)

    def per_count(name, counter, scale):
        return per(self_ns(name), counters.get(counter, 0), scale)

    def incl_s(name):
        return layers.get(name, {}).get("incl_ns", 0) / 1e9

    c = counters.get
    cli_self = sum(v["self_ns"] for k, v in layers.items() if k.startswith("cli."))
    events = c("simulate.write_events", 0)
    binned = c("analysis.events_binned", 0) + c("analysis.events_dropped", 0)
    degeneracy = layers.get("fitting.degeneracy", {})
    return {
        "config.load_ms": self_ns("config.load") / 1e6,
        "cli.simulate_source_s": incl_s("cli.simulate-source"),
        "cli.analyze_counts_s": incl_s("cli.analyze-counts"),
        "cli.simulate_hom_s": incl_s("cli.simulate-hom"),
        "cli.fit_dip_s": incl_s("cli.fit-dip"),
        "cli.self_ms": cli_self / 1e6,
        "simulate.counting_us_per_shot":
            per_count("simulate.counting", "simulate.counting_shots", 1e3),
        "simulate.shot_rng_us": per_call("simulate.shot_rng", 1e3),
        "simulate.events": events,
        "simulate.write_us_per_event": per(self_ns("simulate.write"), events, 1e3),
        "simulate.read_us_per_event": per_count("simulate.read", "simulate.read_events", 1e3),
        "simulate.event_csv_mb": c("simulate.write_bytes", 0) / 1e6,
        "simulate.hom_us_per_shot": per_count("simulate.hom", "simulate.hom_shots", 1e3),
        "simulate.write_hom_ms": self_ns("simulate.write_hom") / 1e6,
        "simulate.correlation_scan_ms_per_point":
            per_count("simulate.correlation_scan", "simulate.scan_points", 1e6),
        "analysis.bin_us_per_event": per(self_ns("analysis.bin"), binned, 1e3),
        "analysis.histograms_ms": self_ns("analysis.histograms") / 1e6,
        "analysis.events_binned": c("analysis.events_binned", 0),
        "analysis.events_dropped": c("analysis.events_dropped", 0),
        "analysis.cells_kept": c("analysis.cells_kept", 0),
        "analysis.bootstrap_us_per_resample":
            per_count("analysis.bootstrap", "analysis.bootstrap_resamples", 1e3),
        "analysis.bootstrap_resamples": c("analysis.bootstrap_resamples", 0),
        "fitting.degeneracy_ms": self_ns("fitting.degeneracy") / 1e6,
        "fitting.degeneracy_refits": degeneracy.get("refits", 0),
        "fitting.degeneracy_refits_failed": degeneracy.get("refits_failed", 0),
        "fitting.likelihood_evals": layers.get("distributions.multimode_log_pmf", {}).get(
            "calls", 0),
        "distributions.multimode_log_pmf_us": per_call("distributions.multimode_log_pmf", 1e3),
        "fitting.dip_ms": self_ns("fitting.dip") / 1e6,
        "fitting.predict_ms": self_ns("fitting.predict") / 1e6,
        "fitting.dip_iterations": c("fitting.dip_iterations", 0),
        "fock.hom_joint_pmf_ms": per_call("fock.hom_joint_pmf", 1e6),
        "fock.truncation_loss_max": c("fock.truncation_loss_max", 0.0),
        "fock.visibility_oracle_ms": per_call("fock.visibility_oracle", 1e6),
        "fock.thermal_input_visibility_ms": per_call("fock.thermal_input_visibility", 1e6),
        "distributions.thermal_pmf_us": per_call("distributions.thermal_pmf", 1e3),
        "distributions.poisson_pmf_us": per_call("distributions.poisson_pmf", 1e3),
        "distributions.multimode_pmf_us": per_call("distributions.multimode_pmf", 1e3),
        "distributions.binomial_thin_ms": per_call("distributions.binomial_thin", 1e6),
    }
