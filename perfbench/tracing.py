"""Span recorder for the traced run, and the per-layer metrics derived from it.

The recorder measures from outside the library: it rebinds each public
boundary function in every `lossnet` module that holds a reference to it
(for example both `lossnet.optimizer.solve_optimal` and
`lossnet.equilibrium.solve_optimal`), records one span per call with its
name, start, end and parent, and restores the originals on exit.  Spans stay
in memory until the run ends.  Counts that explain a layer's time (grid
cells, profiles, packets) are taken from each call's inputs or answer after
its span has closed, so counting is not billed to the layer.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _solve_steps(args, kwargs, _result) -> dict:
    """Split x B pairs the optimizer's double loop visits."""
    counts = sorted(_arg(args, kwargs, 0, "inst").user_counts, reverse=True)
    return {"steps": sum(sum(counts[:split]) for split in range(1, len(counts)))}


def _profiles(args, kwargs, result) -> dict:
    import lossnet as ln

    out = {"profiles": ln.count_profiles(_arg(args, kwargs, 0, "inst"))}
    if isinstance(result, list):
        out["ne"] = len(result)
    return out


def _grid(args, kwargs, result) -> dict:
    n1, n2 = _arg(args, kwargs, 0, "inst").user_counts
    return {"cells": (n1 + 1) * (n2 + 1), "states": len(result)}


def _packets(_args, _kwargs, result) -> dict:
    classes = result.per_class.values()
    return {
        "generated": sum(c.generated for c in classes),
        "sidelink_lost": sum(c.sidelink_lost for c in classes),
        "blocked": sum(c.congestion_lost for c in classes),
        "delivered": sum(c.delivered for c in classes),
    }


def _rows(args, kwargs, result) -> dict:
    outputs = _arg(args, kwargs, 0, "spec").outputs
    return {
        "rows": len(result),
        "cells": len(result) * len(outputs),
        "na": sum(1 for row in result for o in outputs if row[o] == "na"),
    }


def _rounds(_args, _kwargs, result) -> dict:
    return {"rounds": result.rounds}


#: Traced boundaries: "module.function" -> counter taking (args, kwargs, result).
BOUNDARIES = {
    "model.total_traffic": None,
    "model.summarize": None,
    "optimizer.solve_optimal": _solve_steps,
    "optimizer.brute_force_optimal": _profiles,
    "equilibrium.is_nash_characterization": None,
    "equilibrium.is_nash_deviation_oracle": None,
    "equilibrium.enumerate_nash": _profiles,
    "equilibrium.best_response_dynamics": _rounds,
    "equilibrium.poa_report": None,
    "two_source.scan_nash": _grid,
    "packet_sim.simulate": _packets,
    "sweeps.run_sweep": _rows,
}

LAYERS = ("model", "optimizer", "equilibrium", "two_source", "packet_sim", "sweeps")


class Recorder:
    """Collects spans while installed; a context manager."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, int] | None] = []  # (name, start, end, parent)
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn, counter=None):
        """fn wrapped so that each call records a span (and counts)."""
        nid = self._name_id(name)
        spans, stack, counts = self.spans, self._stack, self.counts[name]
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[key] += value
            return result

        return traced

    def __enter__(self) -> "Recorder":
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "lossnet" or n.startswith("lossnet."))]
        for name, counter in BOUNDARIES.items():
            mod_name, func = name.split(".")
            original = getattr(sys.modules[f"lossnet.{mod_name}"], func)
            wrapper = self.span(name, original, counter)
            for mod in modules:
                if mod.__dict__.get(func) is original:
                    self._patches.append((mod, func, original))
                    setattr(mod, func, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, func, original in reversed(self._patches):
            setattr(mod, func, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        """All spans as JSON: names, and [name, start_ns, end_ns, parent] rows."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": [list(s) for s in self.spans]}, fh)

    def stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self nanoseconds."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = {
            n: {"calls": 0, "total_ns": 0, "self_ns": 0} for n in self.names
        }
        for (nid, start, end, _), child in zip(self.spans, child_ns):
            s = out[self.names[nid]]
            s["calls"] += 1
            s["total_ns"] += end - start
            s["self_ns"] += end - start - child
        return out


def peak_alloc_mb(fn, *args) -> float:
    """Peak bytes newly allocated during fn(*args), in MB, via tracemalloc."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


# Per-layer metrics: (name, unit, boundary, value from (boundary stats, counts)).
# A metric whose boundary the workload is expected to cross but which recorded
# no span is left out and reported as missing; one the workload does not
# cross by design reads 0.
_C = "count"
PER_BOUNDARY = [
    ("optimizer.solve_optimal.ms", "ms", "optimizer.solve_optimal",
     lambda s, c: _div(s["total_ns"], s["calls"]) / 1e6),
    ("optimizer.solve_optimal.steps", _C, "optimizer.solve_optimal",
     lambda s, c: _div(c["steps"], s["calls"])),
    ("optimizer.solve_optimal.ns_per_step", "ns", "optimizer.solve_optimal",
     lambda s, c: _div(s["total_ns"], c["steps"])),
    ("optimizer.brute_force_optimal.ms", "ms", "optimizer.brute_force_optimal",
     lambda s, c: _div(s["total_ns"], s["calls"]) / 1e6),
    ("optimizer.brute_force_optimal.ns_per_profile", "ns", "optimizer.brute_force_optimal",
     lambda s, c: _div(s["total_ns"], c["profiles"])),
    ("two_source.scan_nash.ms", "ms", "two_source.scan_nash",
     lambda s, c: _div(s["total_ns"], s["calls"]) / 1e6),
    ("two_source.scan_nash.ns_per_cell", "ns", "two_source.scan_nash",
     lambda s, c: _div(s["total_ns"], c["cells"])),
    ("two_source.grid_cells", _C, "two_source.scan_nash",
     lambda s, c: _div(c["cells"], s["calls"])),
    ("two_source.ne_states", _C, "two_source.scan_nash",
     lambda s, c: _div(c["states"], s["calls"])),
    ("equilibrium.enumerate_nash.us_per_profile", "us", "equilibrium.enumerate_nash",
     lambda s, c: _div(s["total_ns"], c["profiles"]) / 1e3),
    ("equilibrium.profiles_visited", _C, "equilibrium.enumerate_nash",
     lambda s, c: _div(c["profiles"], s["calls"])),
    ("equilibrium.ne_found", _C, "equilibrium.enumerate_nash",
     lambda s, c: _div(c["ne"], s["calls"])),
    ("equilibrium.ne_per_profile", "ratio", "equilibrium.enumerate_nash",
     lambda s, c: _div(c["ne"], c["profiles"])),
    ("equilibrium.is_nash_characterization.us_per_call", "us",
     "equilibrium.is_nash_characterization",
     lambda s, c: _div(s["total_ns"], s["calls"]) / 1e3),
    ("equilibrium.is_nash_deviation_oracle.us_per_call", "us",
     "equilibrium.is_nash_deviation_oracle",
     lambda s, c: _div(s["total_ns"], s["calls"]) / 1e3),
    ("equilibrium.best_response_dynamics.ms_per_call", "ms", "equilibrium.best_response_dynamics",
     lambda s, c: _div(s["total_ns"], s["calls"]) / 1e6),
    ("equilibrium.best_response_dynamics.rounds", _C, "equilibrium.best_response_dynamics",
     lambda s, c: _div(c["rounds"], s["calls"])),
    ("equilibrium.poa_report.ms", "ms", "equilibrium.poa_report",
     lambda s, c: _div(s["total_ns"], s["calls"]) / 1e6),
    ("equilibrium.poa_report.self_ms", "ms", "equilibrium.poa_report",
     lambda s, c: _div(s["self_ns"], s["calls"]) / 1e6),
    ("model.total_traffic.us_per_call", "us", "model.total_traffic",
     lambda s, c: _div(s["total_ns"], s["calls"]) / 1e3),
    ("packet_sim.simulate.ms", "ms", "packet_sim.simulate",
     lambda s, c: _div(s["total_ns"], s["calls"]) / 1e6),
    ("packet_sim.ns_per_pkt", "ns", "packet_sim.simulate",
     lambda s, c: _div(s["total_ns"], c["generated"])),
    ("packet_sim.pkts_generated", _C, "packet_sim.simulate",
     lambda s, c: _div(c["generated"], s["calls"])),
    ("packet_sim.sidelink_lost", _C, "packet_sim.simulate",
     lambda s, c: _div(c["sidelink_lost"], s["calls"])),
    ("packet_sim.blocked", _C, "packet_sim.simulate",
     lambda s, c: _div(c["blocked"], s["calls"])),
    ("packet_sim.delivered", _C, "packet_sim.simulate",
     lambda s, c: _div(c["delivered"], s["calls"])),
    ("packet_sim.delivered_frac", "ratio", "packet_sim.simulate",
     lambda s, c: _div(c["delivered"], c["generated"])),
    ("sweeps.run_sweep.self_ms_per_row", "ms", "sweeps.run_sweep",
     lambda s, c: _div(s["self_ns"], c["rows"]) / 1e6),
    ("sweeps.rows", _C, "sweeps.run_sweep",
     lambda s, c: _div(c["rows"], s["calls"])),
    ("sweeps.rows_na_frac", "ratio", "sweeps.run_sweep",
     lambda s, c: _div(c["na"], c["cells"])),
]
# Calls per user-level call, for boundaries called many times inside one answer.
PER_OP_CALLS = [("model.total_traffic.calls", "model.total_traffic"),
                ("model.summarize.calls", "model.summarize")]
SPAN_COUNTS = [(f"{b}.spans", b) for b in BOUNDARIES]
LAYER_SELF = [(f"{layer}.self_ms_per_op", layer) for layer in LAYERS + ("bench",)]
GLOBAL = [("cli.import_ms", "ms"), ("trace_overhead_frac", "ratio"),
          ("two_source.scan_nash.peak_alloc_mb", "MB"),
          ("packet_sim.simulate.peak_alloc_mb", "MB")]

UNITS = {name: unit for name, unit, _, _ in PER_BOUNDARY}
UNITS.update({name: _C for name, _ in PER_OP_CALLS + SPAN_COUNTS})
UNITS.update({name: "ms" for name, _ in LAYER_SELF})
UNITS.update(dict(GLOBAL))


def layer_metrics(rec: Recorder, user_ops: int, expected: frozenset[str],
                  extra: dict[str, float]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metric values from the recorded spans, and missing boundaries.

    user_ops is the number of user-level calls in the traced phase; their
    root spans are named "bench.<kind>".  extra supplies the GLOBAL values.
    """
    stats = rec.stats()
    empty = {"calls": 0, "total_ns": 0, "self_ns": 0}
    missing = sorted(b for b in expected if stats.get(b, empty)["calls"] == 0)
    values: dict[str, float] = {}
    for name, _, boundary, fn in PER_BOUNDARY:
        if boundary not in missing:
            values[name] = fn(stats.get(boundary, empty), rec.counts[boundary])
    for name, boundary in PER_OP_CALLS:
        if boundary not in missing:
            values[name] = _div(stats.get(boundary, empty)["calls"], user_ops)
    for name, boundary in SPAN_COUNTS:
        if boundary not in missing:
            values[name] = stats.get(boundary, empty)["calls"]
    for name, layer in LAYER_SELF:
        self_ns = sum(s["self_ns"] for n, s in stats.items() if n.split(".")[0] == layer)
        values[name] = _div(self_ns, user_ops) / 1e6
    for name, _ in GLOBAL:
        values[name] = extra[name]
    return values, missing
