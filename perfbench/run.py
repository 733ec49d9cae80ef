"""lossnet benchmark: one workload run, printed as one JSON line.

    python3 perfbench/run.py --workload figures --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
src/.  With --trace 0 the run is split over several fresh worker processes
run one after another, and the last line carries the end-to-end metrics
(setup_s, work_per_ref_s, op_p50_ref_ms, peak_rss_mb) pooled over them,
times taken at the reference speed of speed.py; with
--trace 1 one worker makes a traced run and the last line carries the
per-layer metrics.  The line before it is a report with the workload's own
names for its figures, their wall-clock values, sample counts and the
machine.  See README.md in
this directory for the workloads and metrics.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import UNITS as LAYER_UNITS

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
WORKLOADS = ("figures", "enumeration", "packet_sim")
#: Fresh worker processes per untraced run; their timings are pooled, and
#: setup_s is the median of their set-ups.
PARTS = 5
#: A run must end within 180 s, workers included.
DEADLINE_S = 170
END_TO_END_UNITS = {"setup_s": "s", "work_per_ref_s": "1/s", "op_p50_ref_ms": "ms",
                    "peak_rss_mb": "MB"}


def pinned_env() -> dict:
    """The environment of every worker: one thread everywhere, fixed string hashing."""
    env = dict(os.environ)
    env.pop("LOSSNET_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def worker(args: list[str], env: dict, deadline: float) -> dict:
    """Run one worker; its result with setup_s measured from process start.
    Exits without a result if the worker fails."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, str(WORKER), *args], env=env,
                          stdout=subprocess.PIPE, text=True, timeout=max(deadline - start, 1.0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"worker {' '.join(args)} exited with {proc.returncode}", file=sys.stderr)
        sys.exit(proc.returncode or 1)
    res = json.loads(lines[-1])
    res["setup_s"] = res.pop("ready") - start  # both sides read CLOCK_MONOTONIC
    res["wall_s"] = time.monotonic() - start
    return res


def throughput(parts: list[dict], key: str) -> float:
    """Work of one pass over every input, per second of the pass, each call
    timed by the median of its repeats, so a stall in a few calls does not
    move the figure."""
    times: dict[str, list[float]] = {}
    work: dict[str, int] = {}
    for p in parts:
        for ref, ts in p[key].items():
            times.setdefault(ref, []).extend(ts)
        work.update(p["work"])
    one_pass = parts[0]["pass"]
    return (sum(work.get(k, 0) for k in one_pass)
            / sum(statistics.median(times[k]) for k in one_pass))


def end_to_end(parts: list[dict]) -> tuple[dict, dict]:
    """Pool the parts: metrics, at the reference speed, and the report's
    extra figures, with wall-clock ones among them."""
    latencies = [x for p in parts for x in p["latencies_ms"]]
    wall_latencies = [x for p in parts for x in p["wall_latencies_ms"]]
    metrics = {
        "setup_s": statistics.median(p["setup_s"] * p["setup_scale"] for p in parts),
        "work_per_ref_s": throughput(parts, "times"),
        "op_p50_ref_ms": statistics.median(latencies),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in parts),
    }
    report = {
        f"{parts[0]['work_unit']}_per_ref_s": metrics["work_per_ref_s"],
        f"wall_{parts[0]['work_unit']}_per_s": throughput(parts, "wall_times"),
        "wall_op_p50_ms": statistics.median(wall_latencies),
        "wall_setup_s": statistics.median(p["setup_s"] for p in parts),
        "kernel_ms": [p["kernel_ms"] for p in parts],
        "latency_samples": len(latencies),
        "passes": sum(len(ts) for ts in (t for p in parts for t in p["times"].values()))
        / len(parts[0]["pass"]),
    }
    # A percentile is reported only with at least ten samples beyond it.
    if len(latencies) >= 100:
        report["op_p90_ref_ms"] = statistics.quantiles(latencies, n=10)[-1]
        report["wall_op_p90_ms"] = statistics.quantiles(wall_latencies, n=10)[-1]
    return metrics, report


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--corrupt", action="store_true",
                    help="negative control: falsify one answer before checking")
    args = ap.parse_args()

    if not (HERE.parent / "src" / "lossnet" / "__init__.py").is_file():
        print("no src/lossnet next to the benchmark: run from a source checkout", file=sys.stderr)
        return 2
    env = pinned_env()
    deadline = time.monotonic() + DEADLINE_S
    shared = HERE.parent / ".bench_out" / f"refs-{args.workload}-{args.seed}.json"
    shared.unlink(missing_ok=True)  # references never outlive the run
    base = ["--workload", args.workload, "--seed", str(args.seed), "--trace", str(args.trace),
            "--shared-refs", str(shared)]
    try:
        if args.trace == 0:
            parts = [worker([*base, "--seconds", str(args.seconds / PARTS), "--part", str(k),
                             "--parts", str(PARTS),
                             *(["--corrupt"] if args.corrupt and k == 0 else [])], env, deadline)
                     for k in range(PARTS)]
            metrics, report = end_to_end(parts)
            units = END_TO_END_UNITS
        else:
            parts = [worker([*base, "--seconds", str(args.seconds),
                             *(["--corrupt"] if args.corrupt else [])], env, deadline)]
            metrics = parts[0]["metrics"]
            report = {k: parts[0][k] for k in ("missing", "spans", "spans_file")}
            units = LAYER_UNITS
    finally:
        shared.unlink(missing_ok=True)
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        **report,
        "error_rate": failed / attempted,
        "worker_wall_s": [p["wall_s"] for p in parts],
        "setup_in_process_s": [p["setup_in_process_s"] for p in parts],
        "machine": {"nproc": os.cpu_count(), "cpu": cpu_model(), **parts[0]["versions"]},
    }
    print(json.dumps(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
