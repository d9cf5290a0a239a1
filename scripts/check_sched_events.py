#!/usr/bin/env python3
"""Gate the scheduler benchmark against a committed baseline.

Usage: check_sched_events.py CURRENT.json [--baseline PATH] [--threshold F]

Checks, following the check_packet_path.py model:

* Wall time (``ns_per_op``) per row, normalized by the
  ``schedule_pop_d64`` calibration row — a pure schedule+pop loop every
  scheduler change also moves, so the ratio cancels the machine but not
  a change's *relative* effect on deeper/wider workloads. Budget:
  --threshold (default 25%) over the baseline's ratio.

* The mean-field regime is measured: every ``pop_rearm_pN`` row the
  baseline pins at N >= 1e5 armed timers must be in the current run, so
  the wall leg above compares the regime the timing wheel exists for.

The baseline is full-mode; CI runs --smoke. Normalized ns/op is
workload-size invariant, which is what makes the comparison meaningful
across modes.

Exit code 0 = within budget, 1 = regression, 2 = bad invocation/input.
"""

import re
import sys

import benchgate

GATE = "check_sched_events"
CALIB_ROW = "schedule_pop_d64"
MIN_PENDING = 100_000


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

    # The mean-field regime must be measured, not silently dropped.
    big = [name for name in sorted(base)
           if (m := re.fullmatch(r"pop_rearm_p(\d+)", name))
           and int(m.group(1)) >= MIN_PENDING]
    if not big:
        failures.append(
            f"{args.baseline} pins no pop_rearm row at >= {MIN_PENDING} "
            "pending")
    for name in big:
        present = name in cur
        print(f"  {name}: {'present' if present else 'MISSING'}")
        if not present:
            failures.append(
                f"{name}: missing, so the >= {MIN_PENDING} pending regime "
                "is unmeasured")

    return benchgate.verdict("sched-events regression", failures)


if __name__ == "__main__":
    sys.exit(main())
