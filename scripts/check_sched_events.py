#!/usr/bin/env python3
"""Gate the scheduler benchmark against a committed baseline.

Usage: check_sched_events.py CURRENT.json [--baseline PATH] [--threshold F]

Checks, following the check_packet_path.py model:

* Wall time (``ns_per_op``) per row, normalized by the
  ``schedule_pop_d64`` calibration row — a pure schedule+pop loop every
  scheduler change also moves, so the ratio cancels the machine but not
  a change's *relative* effect on deeper/wider workloads. Budget:
  --threshold (default 25%) over the baseline's ratio.

* Heap-vs-wheel crossover (in-run, machine-independent): at every
  pending count >= 1e5 present in the current run, the
  ``pop_rearm_wheel_pN`` row must not be slower than its
  ``pop_rearm_heap_pN`` twin by more than 10% — the timing wheel exists
  for exactly this regime (EXPERIMENTS.md records the measured
  crossover), so losing it is a regression even if absolute times look
  fine.

The baseline is full-mode; CI runs --smoke. Normalized ns/op and the
in-run heap/wheel ratio are workload-size invariant, which is what makes
the comparison meaningful across modes.

Exit code 0 = within budget, 1 = regression, 2 = bad invocation/input.
"""

import re
import sys

import benchgate

GATE = "check_sched_events"
CALIB_ROW = "schedule_pop_d64"
CROSSOVER_MIN_PENDING = 100_000
CROSSOVER_SLACK = 0.10


def main():
    args = benchgate.parser(
        "freshly measured BENCH_sched.json",
        "bench/baselines/BENCH_sched_wheel.json",
    ).parse_args()

    cur = benchgate.rows_by_name(
        benchgate.load(GATE, args.current, "sched_events"))
    base = benchgate.rows_by_name(
        benchgate.load(GATE, args.baseline, "sched_events"))
    calib = benchgate.calibration(
        GATE, CALIB_ROW, cur, base, args.current, args.baseline)

    failures = []
    for name, cur_row, base_row in benchgate.shared_rows(cur, base, CALIB_ROW):
        benchgate.check_wall(
            name, cur_row, base_row, calib, args.threshold, failures)

    # In-run crossover: the wheel must hold its win at mean-field scale.
    checked_crossover = False
    for name, cur_row in sorted(cur.items()):
        m = re.fullmatch(r"pop_rearm_heap_p(\d+)", name)
        if not m or int(m.group(1)) < CROSSOVER_MIN_PENDING:
            continue
        wheel_row = cur.get(f"pop_rearm_wheel_p{m.group(1)}")
        if wheel_row is None:
            failures.append(f"{name}: missing wheel twin row")
            continue
        checked_crossover = True
        h, w = cur_row["ns_per_op"], wheel_row["ns_per_op"]
        ok = w <= h * (1 + CROSSOVER_SLACK)
        print(
            f"  crossover p{m.group(1)}: wheel {w:.1f} ns/op vs heap "
            f"{h:.1f} ns/op ({(w / h - 1) * 100:+.1f}%)"
            f" {'ok' if ok else 'REGRESSION'}"
        )
        if not ok:
            failures.append(
                f"pop_rearm p{m.group(1)}: wheel {w:.1f} ns/op slower than "
                f"heap {h:.1f} ns/op beyond {CROSSOVER_SLACK * 100:.0f}% slack"
            )
    if not checked_crossover:
        failures.append(
            f"no pop_rearm rows at >= {CROSSOVER_MIN_PENDING} pending: "
            "the crossover regime is unmeasured"
        )

    return benchgate.verdict("sched-events regression", failures)


if __name__ == "__main__":
    sys.exit(main())
