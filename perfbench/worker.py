"""One part of a workload run, in a fresh process; started by run.py.

Sets up (imports, inputs, warm-up), runs the closed loop, checks every
answer, and prints one JSON line.  With --trace 0 the line carries raw
timings that run.py pools across parts; with --trace 1 it carries the
per-layer metrics.  --record-reference instead computes every distinct
analytic answer of the default seed once and writes reference.json.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

t_import = time.perf_counter()
importlib.import_module("lossnet.cli")
IMPORT_MS = (time.perf_counter() - t_import) * 1e3

import numpy as np  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

REFERENCE = HERE / "reference.json"
SPANS_DIR = ROOT / ".bench_out"
MAX_LOGGED_FAILURES = 5


def run_loop(groups, seconds: float, min_groups: int, execute,
             cal: speed.Calibration | None = None) -> dict:
    """Closed loop over the groups, cycling, until `seconds` have passed
    and at least `min_groups` groups ran; stops only between groups.
    With cal, a calibration sample is taken at the start, between calls
    every speed.CAL_EVERY_S seconds, and at the end."""
    records = []  # (op, answer or exception)
    spans = []  # (start, end) of each call, in the order of records
    done = 0
    clock = time.perf_counter
    t0 = last_cal = clock()
    if cal:
        cal.sample()
    while done < min_groups or clock() - t0 < seconds:
        for op in groups[done % len(groups)]:
            if cal and clock() - last_cal >= speed.CAL_EVERY_S:
                cal.sample()
                last_cal = clock()
            t = clock()
            try:
                answer = execute(op)
            except Exception as exc:  # a call that raises counts as failed
                answer = exc
            spans.append((t, clock()))
            records.append((op, answer))
        done += 1
    elapsed = clock() - t0
    if cal:
        cal.sample()
    return {"records": records, "spans": spans, "elapsed": elapsed}


def call_times(run: dict, scale=None) -> tuple[dict, list]:
    """Seconds of each call by ref_key, and of each user-level call, in
    milliseconds; with scale, at the reference speed."""
    times: dict[str, list[float]] = {}
    latencies_ms = []
    for (op, _), (t, t1) in zip(run["records"], run["spans"]):
        dt = (t1 - t) * (scale(t, t1) if scale else 1.0)
        times.setdefault(op.ref_key, []).append(dt)
        if op.user:
            latencies_ms.append(dt * 1e3)
    return times, latencies_ms


def check_all(records, checker, corrupt_kind: str | None) -> int:
    """Number of failed calls; with corrupt_kind, the first answer of that
    kind is falsified first (the negative control)."""
    failed = 0
    for op, answer in records:
        if corrupt_kind is not None and op.kind == corrupt_kind:
            answer = workloads.corrupt(op, answer)
            corrupt_kind = None
        if isinstance(answer, Exception):
            problem = f"raised {answer!r}"
        else:
            problem = checker.check(op, answer)
        if problem is not None:
            failed += 1
            if failed <= MAX_LOGGED_FAILURES:
                print(f"check failed: {op.kind} {op.key}: {problem}", file=sys.stderr)
    return failed


def load_reference(name: str, seed: int) -> dict | None:
    if seed != workloads.DEFAULT_SEED:
        return None
    return json.loads(REFERENCE.read_text(encoding="utf-8"))[name]


def record_reference() -> None:
    out = {}
    for name in workloads.NAMES:
        section = {}
        for group in workloads.build(name, workloads.DEFAULT_SEED).groups:
            for op in group:
                if op.ref_key not in section:
                    got = workloads.summary(op, workloads.execute(op))
                    if got is not None:
                        section[op.ref_key] = got
        out[name] = section
    REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def timed_part(wl, args) -> tuple[dict, list]:
    """Untraced closed loop for one part of the run.

    Part k of n starts k/n of the way through the groups and runs at least
    1/n of them, so the parts together call every input at least once.
    """
    groups = wl.groups
    start = args.part * len(groups) // args.parts
    cal = speed.Calibration()
    t0 = time.perf_counter()
    run = run_loop(groups[start:] + groups[:start], args.seconds,
                   -(-len(groups) // args.parts), workloads.execute, cal)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    work = {op.ref_key: workloads.work_done(op, answer)
            for op, answer in run["records"] if not isinstance(answer, Exception)}
    times, latencies_ms = call_times(run, cal.scale)
    wall_times, wall_latencies_ms = call_times(run)
    return {
        "pass": [op.ref_key for group in groups for op in group],
        "times": times,
        "latencies_ms": latencies_ms,
        "wall_times": wall_times,
        "wall_latencies_ms": wall_latencies_ms,
        "work": work,
        "peak_rss_mb": peak_rss_mb,
        # set-up ran just before the loop: the samples nearest its start
        "setup_scale": cal.scale(t0, t0),
        "kernel_ms": statistics.median(cal.secs) * 1e3,
    }, run["records"]


def traced_run(wl, args) -> tuple[dict, list]:
    """Per-layer metrics.  Each group runs twice, untraced and traced, in
    alternating order; the traced calls give the per-layer numbers and the
    time ratio of the two gives the tracing overhead."""
    rec = tracing.Recorder()
    roots = {}

    def rooted_execute(op):
        if op.kind not in roots:
            roots[op.kind] = rec.span(f"bench.{op.kind}", workloads.execute)
        return roots[op.kind](op)

    plain, traced = [], []
    t0 = time.perf_counter()
    k = 0
    while k < len(wl.groups) or time.perf_counter() - t0 < args.seconds:
        group = [wl.groups[k % len(wl.groups)]]
        for traced_turn in ((False, True) if k % 2 == 0 else (True, False)):
            if traced_turn:
                with rec:
                    traced.append(run_loop(group, 0.0, 1, rooted_execute))
            else:
                plain.append(run_loop(group, 0.0, 1, workloads.execute))
        k += 1
    user_ops = sum(1 for run in traced for op, _ in run["records"] if op.user)
    extra = {
        "cli.import_ms": IMPORT_MS,
        "trace_overhead_frac": sum(r["elapsed"] for r in traced)
        / sum(r["elapsed"] for r in plain) - 1.0,
        "two_source.scan_nash.peak_alloc_mb": peak_alloc(wl, "scan"),
        "packet_sim.simulate.peak_alloc_mb": peak_alloc(wl, "simulate"),
    }
    metrics, missing = tracing.layer_metrics(rec, user_ops, wl.expected, extra)
    spans_file = SPANS_DIR / f"spans-{wl.name}-{args.seed}.json"
    rec.write(spans_file)
    for b in missing:
        print(f"expected boundary {b} recorded no spans", file=sys.stderr)
    out = {"metrics": metrics, "missing": missing, "spans": len(rec.spans),
           "spans_file": str(spans_file.relative_to(ROOT))}
    return out, [r for run in plain + traced for r in run["records"]]


def peak_alloc(wl, what: str) -> float:
    """tracemalloc peak of one scan_nash or simulate call on the workload's
    largest input of that kind (0 where the workload makes no such call)."""
    import lossnet as ln

    if what == "scan":
        insts = {op.args[0] for g in wl.groups for op in g if op.kind == "poa"}
        insts |= {workloads.apply_axis(op.args[0].base, op.args[0].axis, op.args[0].grid[0])
                  for g in wl.groups for op in g if op.kind == "row"}
        inputs = sorted((i for i in insts if i.m == 2),
                        key=lambda i: -i.user_counts[0] * i.user_counts[1])
        fn = ln.scan_nash
    else:
        inputs = sorted((op.args[0] for g in wl.groups for op in g if op.kind == "simulate"),
                        key=lambda c: -c.horizon * c.instance.n)
        fn = ln.simulate
    return tracing.peak_alloc_mb(fn, inputs[0]) if inputs else 0.0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--part", type=int, default=0)
    ap.add_argument("--parts", type=int, default=1)
    ap.add_argument("--corrupt", action="store_true")
    ap.add_argument("--shared-refs", type=Path, help="check references shared across parts")
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args()
    if args.record_reference:
        record_reference()
        return 0

    wl = workloads.build(args.workload, args.seed)
    workloads.warm_up(args.workload)
    ready = time.monotonic()  # run.py's clock: process start to here is setup_s
    setup_in_process_s = time.perf_counter() - T_START

    out, records = (timed_part if args.trace == 0 else traced_run)(wl, args)
    checker = workloads.Checker(load_reference(wl.name, args.seed), args.shared_refs)
    failed = check_all(records, checker, workloads.CORRUPT_KIND[wl.name] if args.corrupt else None)
    checker.save_shared()
    out.update({
        "ready": ready,
        "setup_in_process_s": setup_in_process_s,
        "attempted": len(records),
        "failed": failed,
        "work_unit": wl.work_unit,
        "versions": {"python": platform.python_version(), "numpy": np.__version__},
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
