#!/usr/bin/env python3
"""Gate the conservative parallel engine's bench rows.

Usage:
  check_parallel.py --packet-path BENCH_packet_path.json \
                    --meanfield BENCH_meanfield.json \
                    [--baseline bench/baselines/BENCH_parallel.json] \
                    [--threshold F] [--write-baseline PATH]

Five kinds of checks:

* Events exact (within each current file, no baseline needed): a parallel
  row must execute EXACTLY as many simulator events as its sequential
  twin — the remote delivery event replaces the producer-side fused local
  delivery one-for-one, so any drift means the engines diverged.
  ``fig02_n60_reno_red_lp2`` is checked against ``fig02_n60_reno_red``
  (sim_events and delivered), and every ``meanfield_nN_lpK`` row against
  ``meanfield_nN`` (ops). ``fig02_n60_reno_red_lp2_traced`` is checked
  against ``fig02_n60_reno_red_traced`` on sim_events, delivered AND
  trace_records: the merged per-LP rings must reproduce the lp=1 trace
  record-for-record.

* Traced-lp2 ceiling (within the packet_path file, no baseline needed):
  ``fig02_n60_reno_red_lp2_traced`` may cost at most 1.5x the ns/op of
  ``fig02_n60_reno_red_traced`` from the same run. Both rows trace the
  same run, so the ratio cancels the machine; what separates them is the
  per-LP rings, their merge and the engine itself.

* Flight-recorder overhead (within the meanfield file): every
  ``meanfield_nN_fr`` row's wall must stay within 5% (+0.15 s slack) of
  its untraced ``meanfield_nN`` twin, with a nonzero fixed sample budget
  — the huge-N sampler must be effectively free.

* Wall time, normalized by the ``calib_sched_pop_d64`` row of the same
  file and compared per-row against the committed baseline (same scheme
  as check_packet_path.py — the ratio cancels the machine). Budget:
  --threshold (default 25%). Rows absent from the baseline are skipped.

* Speedup floors (meanfield, full mode only): at N=1e5 the 2-LP row must
  run >= 1.4x faster than the sequential row and the 4-LP row >= 2.0x —
  but ONLY when the reporting machine has at least that many hardware
  threads (the file's ``hw_threads`` field). A 1-core runner executes the
  LP threads serially plus barrier overhead; demanding speedup there
  would gate on hardware, not code.

--write-baseline snapshots the rows this script cares about (calibration,
parallel rows, their sequential twins) from the current files into a
combined baseline JSON; run it on a quiet machine after an intentional
perf change, same as re-pinning the other bench baselines.

Exit code 0 = within budget, 1 = regression, 2 = bad invocation/input
(a missing or unreadable baseline included).
"""

import argparse
import json
import re
import sys

import benchgate

GATE = "check_parallel"
CALIB_ROW = "calib_sched_pop_d64"
MEANFIELD_LP = re.compile(r"^(meanfield_n\d+)_lp(\d+)$")
PACKET_LP = re.compile(r"^(fig02_n60_reno_red)_lp(\d+)$")
# Traced parallel row vs traced sequential row: per-LP rings merged at
# export must reproduce the lp=1 trace exactly, so record counts (and the
# untouched packet counters) must be equal.
PACKET_LP_TRACED = re.compile(r"^(fig02_n60_reno_red)_lp(\d+)_traced$")
# (traced sequential row, traced parallel row, ceiling on their ns/op
# ratio): the ROADMAP item 2 target for what splitting a traced run may
# cost.
TRACED_LP_CEILINGS = [
    ("fig02_n60_reno_red_traced", "fig02_n60_reno_red_lp2_traced", 1.5),
]
MEANFIELD_FR = re.compile(r"^(meanfield_n\d+)_fr$")
# Flight-recorder overhead ceiling: wall within 5% of the untraced twin
# (plus a small absolute slack so sub-second smoke rows don't gate on
# scheduler noise).
FR_WALL_RATIO = 1.05
FR_WALL_SLACK_S = 0.15
# (sequential row, parallel row, floor) — enforced at full mode only,
# and only when hw_threads covers the LP count.
SPEEDUP_FLOORS = [
    ("meanfield_n100000", "meanfield_n100000_lp2", 2, 1.4),
    ("meanfield_n100000", "meanfield_n100000_lp4", 4, 2.0),
]


def check_events_exact(rows, pattern, fields, failures, twin_suffix=""):
    """Every parallel row's counters must equal its sequential twin's."""
    found = 0
    for name in sorted(rows):
        m = pattern.match(name)
        if not m:
            continue
        found += 1
        twin = m.group(1) + twin_suffix
        seq = rows.get(twin)
        if seq is None:
            failures.append(f"{name}: sequential twin {twin} missing")
            continue
        for field in fields:
            c, b = rows[name].get(field), seq.get(field)
            ok = c == b and c is not None
            print(
                f"  {name}: {field} {c} vs sequential {b}"
                f" {'exact' if ok else 'MISMATCH'}"
            )
            if not ok:
                failures.append(
                    f"{name}: {field} {c} != sequential twin's {b}"
                )
    return found


def check_normalized_wall(label, cur, base, threshold, failures):
    """benchgate's row/calib scheme, lp rows only."""
    if CALIB_ROW not in cur or CALIB_ROW not in base:
        failures.append(f"{label}: {CALIB_ROW} row missing (current or baseline)")
        return
    calib = (cur[CALIB_ROW]["ns_per_op"], base[CALIB_ROW]["ns_per_op"])
    for name, cur_row, base_row in benchgate.shared_rows(cur, base, CALIB_ROW):
        if "_lp" in name:
            benchgate.check_wall(
                name, cur_row, base_row, calib, threshold, failures)


def check_traced_ceiling(rows, failures):
    """Traced parallel rows: ns/op within a fixed multiple of the traced
    sequential twin's from the same file."""
    for seq_name, lp_name, ceiling in TRACED_LP_CEILINGS:
        if lp_name not in rows or seq_name not in rows:
            failures.append(f"{lp_name}: row or its twin {seq_name} missing")
            continue
        ratio = rows[lp_name]["ns_per_op"] / rows[seq_name]["ns_per_op"]
        ok = ratio <= ceiling
        print(
            f"  {lp_name}: {ratio:.2f}x the ns/op of {seq_name}"
            f" vs ceiling {ceiling:.1f}x {'ok' if ok else 'REGRESSION'}"
        )
        if not ok:
            failures.append(
                f"{lp_name}: {ratio:.2f}x the ns/op of {seq_name}, "
                f"above the {ceiling:.1f}x ceiling"
            )


def check_flight_recorder(rows, failures):
    """FR rows: wall within the overhead ceiling of the untraced twin,
    sample budget fixed and nonzero."""
    found = 0
    for name in sorted(rows):
        m = MEANFIELD_FR.match(name)
        if not m:
            continue
        found += 1
        row, seq = rows[name], rows.get(m.group(1))
        if seq is None:
            failures.append(f"{name}: untraced twin {m.group(1)} missing")
            continue
        # Overhead = fr wall vs untraced wall; both rows came from the
        # same invocation on the same machine, so the raw ratio is fair.
        ok_wall = row["wall_s"] <= seq["wall_s"] * FR_WALL_RATIO + FR_WALL_SLACK_S
        ok_budget = row.get("fr_bytes", 0) > 0 and row.get("fr_samples", 0) > 0
        overhead = (
            (row["wall_s"] / seq["wall_s"] - 1) * 100 if seq["wall_s"] else 0.0
        )
        print(
            f"  {name}: wall {row['wall_s']:.3f} s vs untraced"
            f" {seq['wall_s']:.3f} s ({overhead:+.1f}%),"
            f" {row.get('fr_samples', 0)} samples in"
            f" {row.get('fr_bytes', 0)} B"
            f" {'ok' if ok_wall and ok_budget else 'REGRESSION'}"
        )
        if not ok_wall:
            failures.append(
                f"{name}: wall {row['wall_s']:.3f} s exceeds untraced twin's "
                f"{seq['wall_s']:.3f} s by more than "
                f"{(FR_WALL_RATIO - 1) * 100:.0f}% (+{FR_WALL_SLACK_S} s slack)"
            )
        if not ok_budget:
            failures.append(f"{name}: flight-recorder budget/sample fields absent")
    return found


def check_speedup(doc, rows, failures):
    if doc.get("mode") != "full":
        print("  speedup floors: smoke mode — skipped (full-size rows only)")
        return
    hw = int(doc.get("hw_threads", 0))
    for seq_name, lp_name, lanes, floor in SPEEDUP_FLOORS:
        if lp_name not in rows or seq_name not in rows:
            continue
        if hw < lanes:
            print(
                f"  {lp_name}: machine has {hw} hw threads < {lanes} LPs"
                " — speedup floor not applicable"
            )
            continue
        speedup = rows[seq_name]["wall_s"] / rows[lp_name]["wall_s"]
        ok = speedup >= floor
        print(
            f"  {lp_name}: speedup {speedup:.2f}x vs floor {floor:.1f}x"
            f" {'ok' if ok else 'REGRESSION'}"
        )
        if not ok:
            failures.append(
                f"{lp_name}: speedup {speedup:.2f}x below the {floor:.1f}x floor"
            )


def baseline_subset(rows, patterns):
    """Calibration + parallel/traced/fr rows + their sequential twins."""
    keep = {CALIB_ROW}
    for name in rows:
        for pattern, twin_suffix in patterns:
            m = pattern.match(name)
            if m:
                keep.add(name)
                keep.add(m.group(1) + twin_suffix)
    return [rows[n] for n in sorted(keep) if n in rows]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--packet-path", required=True,
                    help="freshly measured BENCH_packet_path.json")
    ap.add_argument("--meanfield", required=True,
                    help="freshly measured BENCH_meanfield.json")
    ap.add_argument(
        "--baseline",
        default="bench/baselines/BENCH_parallel.json",
        help="committed reference rows (default: %(default)s)",
    )
    benchgate.add_threshold(ap)
    ap.add_argument(
        "--write-baseline",
        metavar="PATH",
        help="snapshot the relevant rows of the current files to PATH "
        "and exit (no gating)",
    )
    args = ap.parse_args()

    pp = benchgate.rows_by_name(
        benchgate.load(GATE, args.packet_path, "packet_path"))
    mf_doc = benchgate.load(GATE, args.meanfield, "fig_meanfield")
    mf = benchgate.rows_by_name(mf_doc)

    if args.write_baseline:
        doc = {
            "bench": "parallel",
            "schema": 1,
            "packet_path": baseline_subset(
                pp, [(PACKET_LP, ""), (PACKET_LP_TRACED, "_traced")]
            ),
            "meanfield": baseline_subset(
                mf, [(MEANFIELD_LP, ""), (MEANFIELD_FR, "")]
            ),
        }
        with open(args.write_baseline, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
        print(f"wrote {args.write_baseline}")
        return 0

    base_doc = benchgate.load(GATE, args.baseline, "parallel")
    base_pp = benchgate.rows_by_name(base_doc, "packet_path")
    base_mf = benchgate.rows_by_name(base_doc, "meanfield")

    failures = []

    print("events exact (parallel vs sequential twin):")
    n_pp = check_events_exact(pp, PACKET_LP, ("sim_events", "delivered"),
                              failures)
    n_mf = check_events_exact(mf, MEANFIELD_LP, ("ops",), failures)
    if n_pp == 0:
        failures.append("no fig02 lp rows found in the packet_path file")
    if n_mf == 0:
        failures.append("no meanfield lp rows found in the meanfield file")

    print("traced lp rows (merged trace vs sequential traced twin):")
    n_tr = check_events_exact(
        pp,
        PACKET_LP_TRACED,
        ("sim_events", "delivered", "trace_records"),
        failures,
        twin_suffix="_traced",
    )
    if n_tr == 0:
        failures.append("no traced lp rows found in the packet_path file")

    print("traced-lp2 ceiling (traced lp row vs traced sequential twin):")
    check_traced_ceiling(pp, failures)

    print("flight-recorder overhead (fr rows vs untraced twin):")
    n_fr = check_flight_recorder(mf, failures)
    if n_fr == 0:
        failures.append("no flight-recorder rows found in the meanfield file")

    print("calibration-normalized wall (parallel rows vs baseline):")
    check_normalized_wall("packet_path", pp, base_pp, args.threshold, failures)
    check_normalized_wall("meanfield", mf, base_mf, args.threshold, failures)

    print("speedup floors (full mode, hardware permitting):")
    check_speedup(mf_doc, mf, failures)

    return benchgate.verdict("parallel-engine", failures)


if __name__ == "__main__":
    sys.exit(main())
