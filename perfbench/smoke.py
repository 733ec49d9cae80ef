"""Smoke test and negative control for the benchmark itself.

    python3 perfbench/smoke.py [--seed 0]

For every workload: a one-second untraced run must emit exactly the
end-to-end metrics of BENCHMARK.json with their units and no failed call; a
traced run must emit exactly the per-layer metrics with no missing boundary;
and a run whose negative control falsifies one answer (tr_opt off by 1e-6
relative, or one flipped NE verdict, or one packet too many delivered) must
count exactly that one call as failed.  Finally the benchmark must fail,
printing no result, in a directory holding only BENCHMARK.json and itself.
Exits 0 when all of that holds.
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", default="0")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            problems.append(what)

    for wl in (w["name"] for w in spec["workloads"]):
        for trace, corrupt in ((0, False), (1, False), (0, True)):
            proc = run(ROOT, "--workload", wl, "--seed", args.seed, "--seconds", "1",
                       "--trace", str(trace), *(["--corrupt"] if corrupt else []))
            label = f"{wl} trace={trace}{' corrupt' if corrupt else ''}"
            if proc.returncode != 0:
                expect(False, f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            report, result = (json.loads(x) for x in proc.stdout.strip().splitlines()[-2:])
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            expect(got == want[trace], f"{label}: metric names and units match BENCHMARK.json")
            if corrupt:
                expect(result["failed"] == 1 and not result["correct"],
                       f"{label}: the falsified answer is the one failed call "
                       f"({result['failed']} of {result['attempted']})")
            else:
                expect(result["failed"] == 0 and result["correct"],
                       f"{label}: no failed call ({result['attempted']} attempted)")
            if trace == 1:
                expect(report["missing"] == [], f"{label}: every expected boundary traced")

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(bare, "--workload", "figures", "--seed", args.seed, "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without the package sources the benchmark fails and prints no result")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
