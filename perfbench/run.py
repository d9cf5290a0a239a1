#!/usr/bin/env python3
"""Repository benchmark: build the simulator from source and run one workload.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                                [--record FILE]

The first call configures and builds perfbench/ (and the simulator
library under src/) into .bench_build/ at the repository root; later
calls rebuild incrementally. Result stores go to a per-run directory
under .bench_build/work/, removed when the run ends. The workload's own output lines pass
through; the last stdout line is the result:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`attempted`/`failed` count the output checks: the binary's invariants,
the metric table against BENCHMARK.json, and, for seeds listed in
perfbench/pins.json, the pinned output digests. --record appends the full
result (metrics plus digests) to FILE as one JSON line for compare.py.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "work"
TOPO = ROOT / "examples" / "topologies" / "dumbbell_n60.topo"
PINS = HERE / "pins.json"
WORKLOADS = ("paper_campaign", "meanfield_n10k", "fig02_traced_lp2")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j4", "--target", "perfbench"])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    return BUILD / "perfbench"


def pin_checks(workload, seed, digests, pins):
    """(attempted, failed) for the digests pinned for this workload and seed."""
    pinned = pins.get(workload, {}).get(str(seed), {})
    failed = 0
    for name, want in sorted(pinned.items()):
        got = digests.get(name)
        if got != want:
            failed += 1
            print(f"check FAILED: digest {name} = {got}, pinned {want}")
    return len(pinned), failed


def table_checks(metrics, bench, trace):
    """(attempted, failed): the reported metrics are exactly the table's."""
    table = bench["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in table}
    got = {k: v["unit"] for k, v in metrics.items()}
    if got != want:
        print(f"check FAILED: metric table differs from BENCHMARK.json: "
              f"missing {sorted(set(want) - set(got))}, "
              f"extra {sorted(set(got) - set(want))}")
        return 1, 1
    return 1, 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--record", help="append the full result to this JSONL file")
    args = ap.parse_args()

    missing = [p for p in (ROOT / "src" / "CMakeLists.txt", TOPO,
                           ROOT / "BENCHMARK.json") if not p.exists()]
    if missing:
        log(f"not a repository checkout, missing {', '.join(map(str, missing))}")
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return 3

    work = WORK / str(os.getpid())  # result stores; private to this run
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work), "--topo", str(TOPO)]
    try:
        # subprocess.run kills and reaps the child on timeout.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 4
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        log(f"{args.workload} exited {proc.returncode}")
        return 5
    for line in lines[:-1]:
        print(line)
    res = json.loads(lines[-1])

    attempted, failed = res["attempted"], res["failed"]
    for a, f in (table_checks(res["metrics"], bench, args.trace),
                 pin_checks(args.workload, args.seed, res["digests"], pins)):
        attempted += a
        failed += f

    if args.record:
        rec = dict(res, trace=args.trace, attempted=attempted, failed=failed)
        with open(args.record, "a") as f:
            f.write(json.dumps(rec) + "\n")
    print(f"all checks: {attempted - failed}/{attempted} passed, "
          f"failed_frac = {failed / attempted:.6g}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
