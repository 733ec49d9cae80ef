"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads figures packet_sim --seeds 1 2 3 4 5
    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --baseline perfbench/baseline.json

For every workload and end-to-end metric it prints the median, the first and
third quartiles (statistics.quantiles, n=4) and the spread, (Q3 - Q1) /
median, next to the metric's bound from BENCHMARK.json; and the same for the
wall-clock figures of the report line, which have no bound.  --baseline also
writes those figures, with every run's values, to a JSON file.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--baseline", type=Path)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"run_seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    worst = 0.0
    for wl in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        wall: dict[str, list[float]] = {}
        machine = None
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            report, result = (json.loads(x) for x in proc.stdout.strip().splitlines()[-2:])
            machine = report["machine"]
            if not result["correct"]:
                print(f"{wl} seed {seed}: {result['failed']} failed", file=sys.stderr)
                return 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            for name, value in report.items():
                if name.startswith("wall_") and "p90" not in name:
                    wall.setdefault(name, []).append(value)
            print(f"{wl} seed {seed}: " + ", ".join(
                f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)
        rows = {}
        for name, vals in [*values.items(), *wall.items()]:
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            bound = bounds.get(name)
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bound, "values": vals}
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {wl:14s} {name:16s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
                  f"  spread {spread:.4f}  bound {bound}")
        out["workloads"][wl] = rows
        out["machine"] = machine
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    if args.baseline:
        args.baseline.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
