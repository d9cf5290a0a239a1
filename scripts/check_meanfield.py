#!/usr/bin/env python3
"""Gate the huge-N mean-field benchmark against a committed baseline.

Usage: check_meanfield.py CURRENT.json [--baseline PATH] [--threshold F]

Checks, following the check_sched_events.py model:

* Wall time (``ns_per_op``) per N row, normalized by the
  ``calib_sched_pop_d64`` calibration row, budget --threshold (default
  25%) over the baseline's normalized ratio. This is the perf gate: a
  regression here means per-event cost grew with N, for example because
  per-flow state got hot again.

* Machine-independent physics checks on the current run alone:

  - c.o.v. decay: stochastic fluctuations die out as 1/sqrt(N) but the
    TCP/RED mean-field limit is a deterministic *limit cycle* (the
    synchronized RED oscillation the paper's burstiness theme is
    about), so the measured c.o.v. falls and then saturates at the
    cycle's amplitude (~0.10 here) instead of decaying forever. Gates:
    the first decade's log-log slope must sit in [-0.90, -0.15]
    (measured -0.33; a pure-noise -0.5 minus the emerging floor), the
    overall cov(N_max)/cov(N_min) ratio must be <= 0.6 (measured
    ~0.44), and no grid step may *rise* by more than 10% (the floor is
    flat, not resurgent).
  - RED occupancy: measured mean queue (PASTA) within a factor band
    [0.35, 1.9] of the closed-form fixed point at every N >= 1000. The
    square-root law behind the fixed point ignores timeouts and slow
    start, so it over-predicts by a stable ~2.3x (measured ratio 0.44
    at every N — the N-invariance is the mean-field prediction, the
    offset is the model error); catching a queue pinned at empty/full
    is the point.
  - bytes_per_flow must not exceed the budget recorded in the file. It
    counts what the TCP agents hold after the run: each sender and sink
    object plus the sender's send-time ring (~1.1 KB at every N against
    a 2048 B budget); the per-flow PoissonSource is not counted.

The baseline is full-mode; CI runs --smoke. Normalized ns/op and the
physics checks are workload-size invariant, which is what makes the
comparison meaningful across modes.

Exit code 0 = within budget, 1 = regression, 2 = bad invocation/input.
"""

import math
import sys

import benchgate

GATE = "check_meanfield"
CALIB_ROW = "calib_sched_pop_d64"
FIRST_DECADE_SLOPE_BAND = (-0.90, -0.15)
DECAY_MAX_RATIO = 0.6       # cov(N_max) / cov(N_min)
RESURGENCE_TOLERANCE = 1.10  # max allowed per-step cov increase
OCCUPANCY_BAND = (0.35, 1.9)
OCCUPANCY_MIN_CLIENTS = 1000


def fit_slope(xs, ys):
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den


def main():
    args = benchgate.parser(
        "freshly measured BENCH_meanfield.json",
        "bench/baselines/BENCH_meanfield.json",
    ).parse_args()

    cur_doc = benchgate.load(GATE, args.current, "fig_meanfield")
    cur = benchgate.rows_by_name(cur_doc)
    base = benchgate.rows_by_name(
        benchgate.load(GATE, args.baseline, "fig_meanfield"))
    calib = benchgate.calibration(
        GATE, CALIB_ROW, cur, base, args.current, args.baseline)

    failures = []

    # Perf gate: normalized per-event cost per shared N row.
    for name, cur_row, base_row in benchgate.shared_rows(cur, base, CALIB_ROW):
        benchgate.check_wall(
            name, cur_row, base_row, calib, args.threshold, failures)

    # Physics checks on the current run alone.
    sweep = sorted(
        (r for r in cur.values() if r.get("clients", 0) > 0),
        key=lambda r: r["clients"],
    )
    if len(sweep) < 3:
        failures.append(f"only {len(sweep)} sweep rows: need >= 3 for decay")
    else:
        first, second, last = sweep[0], sweep[1], sweep[-1]
        slope = fit_slope(
            [math.log(first["clients"]), math.log(second["clients"])],
            [math.log(first["cov"]), math.log(second["cov"])],
        )
        ok = FIRST_DECADE_SLOPE_BAND[0] <= slope <= FIRST_DECADE_SLOPE_BAND[1]
        print(
            f"  cov first-decade slope: {slope:.3f} over "
            f"N={first['clients']}..{second['clients']} "
            f"(band {FIRST_DECADE_SLOPE_BAND}) {'ok' if ok else 'REGRESSION'}"
        )
        if not ok:
            failures.append(
                f"first-decade cov slope {slope:.3f} outside "
                f"{FIRST_DECADE_SLOPE_BAND}: aggregate fluctuations no "
                "longer decay toward the mean-field limit"
            )
        decay = last["cov"] / first["cov"]
        ok = decay <= DECAY_MAX_RATIO
        print(
            f"  cov decay: {first['cov']:.4f} -> {last['cov']:.4f} "
            f"(ratio {decay:.2f}, max {DECAY_MAX_RATIO}) "
            f"{'ok' if ok else 'REGRESSION'}"
        )
        if not ok:
            failures.append(
                f"cov(N={last['clients']})/cov(N={first['clients']}) = "
                f"{decay:.2f} exceeds {DECAY_MAX_RATIO}: population "
                "averaging is not quieting the aggregate"
            )
        for prev, row in zip(sweep, sweep[1:]):
            if row["cov"] > prev["cov"] * RESURGENCE_TOLERANCE:
                failures.append(
                    f"cov resurges: N={row['clients']} cov "
                    f"{row['cov']:.4f} is more than "
                    f"{(RESURGENCE_TOLERANCE - 1) * 100:.0f}% above "
                    f"N={prev['clients']} cov {prev['cov']:.4f}"
                )

    budget = cur_doc.get("budget_bytes_per_flow")
    for row in sweep:
        fp = row.get("queue_fixed_point", -1.0)
        qm = row.get("queue_mean", 0.0)
        if row["clients"] >= OCCUPANCY_MIN_CLIENTS:
            if fp <= 0:
                failures.append(
                    f"{row['name']}: mean-field fixed point did not converge"
                )
            else:
                ratio = qm / fp
                ok = OCCUPANCY_BAND[0] <= ratio <= OCCUPANCY_BAND[1]
                print(
                    f"  {row['name']}: queue {qm:.1f} vs fixed point "
                    f"{fp:.1f} (ratio {ratio:.2f}) {'ok' if ok else 'REGRESSION'}"
                )
                if not ok:
                    failures.append(
                        f"{row['name']}: measured/analytic occupancy ratio "
                        f"{ratio:.2f} outside {OCCUPANCY_BAND}"
                    )
        if budget is not None and row.get("bytes_per_flow", 0) > budget:
            failures.append(
                f"{row['name']}: {row['bytes_per_flow']:.0f} bytes/flow "
                f"exceeds the {budget} budget"
            )

    return benchgate.verdict("mean-field", failures)


if __name__ == "__main__":
    sys.exit(main())
