#!/usr/bin/env python3
"""Gate the packet-path benchmark against a committed baseline.

Usage: check_packet_path.py CURRENT.json [--baseline PATH] [--threshold F]

Two kinds of checks, per row shared by the current run and the baseline:

* Deterministic counters (``events_per_hop``, and ``trace_records`` per
  event on traced rows): these are exact properties of the event
  machinery — 1 scheduler event per hop on an idle link, ~2 on a
  saturated one, ~0.95 trace records per event on the traced fig02
  workload — and must not creep up. Budget: 2% (the smoke workload's
  shorter runs shift the start-up fraction slightly).

* Wall time (``ns_per_op``), normalized by the ``calib_sched_pop_d64``
  row: the calibration row is a pure scheduler schedule+pop loop that the
  link/timer code never touches, so the ratio row/calib cancels the
  machine (CI runners differ wildly run to run). Budget: --threshold
  (default 25%) over the baseline's ratio.

The baseline is full-mode; CI runs --smoke. ops counts differ, but
events-per-hop and normalized ns/op are workload-size invariant, which is
what makes the comparison meaningful across modes.

Exit code 0 = within budget, 1 = regression, 2 = bad invocation/input.
"""

import sys

import benchgate

GATE = "check_packet_path"
CALIB_ROW = "calib_sched_pop_d64"
COUNTER_TOLERANCE = 0.02
# (label, row field that must be present, value compared per row)
COUNTERS = (
    ("events/hop", "events_per_hop", lambda r: r["events_per_hop"]),
    ("trace records/event", "trace_records",
     lambda r: r["trace_records"] / r["ops"]),
)


def main():
    args = benchgate.parser(
        "freshly measured BENCH_packet_path.json",
        "bench/baselines/BENCH_packet_path_wheel.json",
    ).parse_args()

    cur = benchgate.rows_by_name(
        benchgate.load(GATE, args.current, "packet_path"))
    base = benchgate.rows_by_name(
        benchgate.load(GATE, args.baseline, "packet_path"))
    calib = benchgate.calibration(
        GATE, CALIB_ROW, cur, base, args.current, args.baseline)

    failures = []
    for name, cur_row, base_row in benchgate.shared_rows(cur, base, CALIB_ROW):
        for label, key, per_unit in COUNTERS:
            if cur_row.get(key, -1) < 0 or base_row.get(key, -1) < 0:
                continue
            c, b = per_unit(cur_row), per_unit(base_row)
            ok = c <= b * (1 + COUNTER_TOLERANCE)
            print(
                f"  {name}: {label} {c:.4f} vs baseline {b:.4f}"
                f" {'ok' if ok else 'REGRESSION'}"
            )
            if not ok:
                failures.append(
                    f"{name}: {label} {c:.4f} > {b:.4f} "
                    f"(+{(c / b - 1) * 100:.1f}%)"
                )
        benchgate.check_wall(
            name, cur_row, base_row, calib, args.threshold, failures)

    return benchgate.verdict("packet-path regression", failures)


if __name__ == "__main__":
    sys.exit(main())
