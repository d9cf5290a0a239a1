"""What the bench regression gates (scripts/check_*.py) share.

Each gate reads the JSON a perf probe wrote (bench/sched_events,
bench/packet_path, bench/fig_meanfield) and a committed baseline from
bench/baselines/, prints one line per check, and ends with a verdict.
Wall time is compared after dividing each row's ns/op by the
calibration row of its own file (a pure scheduler schedule+pop loop), so
the ratio cancels the machine.

Exit codes, for every gate: 0 = within budget, 1 = regression,
2 = bad invocation/input (an unreadable file, a file from another bench,
a missing baseline).
"""

import argparse
import json
import sys

BAD_INPUT = 2


def load(gate, path, bench):
    """The JSON document at @path; exits 2 unless it is a @bench result."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"{gate}: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(BAD_INPUT)
    if not isinstance(doc, dict) or doc.get("bench") != bench:
        print(f"{gate}: {path} is not a {bench} result", file=sys.stderr)
        sys.exit(BAD_INPUT)
    return doc


def rows_by_name(doc, key="results"):
    return {row["name"]: row for row in doc.get(key, [])}


def add_threshold(ap):
    ap.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="allowed fractional regression in normalized wall time "
        "(default: %(default)s)",
    )


def parser(current_help, baseline_default):
    """The CURRENT [--baseline PATH] [--threshold F] command line."""
    ap = argparse.ArgumentParser()
    ap.add_argument("current", help=current_help)
    ap.add_argument(
        "--baseline",
        default=baseline_default,
        help="committed reference run (default: %(default)s)",
    )
    add_threshold(ap)
    return ap


def calibration(gate, calib_row, cur, base, cur_path, base_path):
    """(current, baseline) calibration ns/op; prints the calibration line."""
    for rows, path in ((cur, cur_path), (base, base_path)):
        if calib_row not in rows:
            sys.exit(f"{gate}: {path} lacks the {calib_row} row")
    cur_calib = cur[calib_row]["ns_per_op"]
    base_calib = base[calib_row]["ns_per_op"]
    print(
        f"calibration: current {cur_calib:.1f} ns/op, "
        f"baseline {base_calib:.1f} ns/op "
        f"(machine factor {cur_calib / base_calib:.2f}x)"
    )
    return cur_calib, base_calib


def shared_rows(cur, base, calib_row):
    """(name, current row, baseline row) for every row both files hold,
    calibration excluded, in name order."""
    for name in sorted(cur):
        if name != calib_row and name in base:
            yield name, cur[name], base[name]


def check_wall(name, cur_row, base_row, calib, threshold, failures):
    """One row's calibration-normalized ns/op may exceed the baseline's
    by at most @threshold."""
    c_ratio = cur_row["ns_per_op"] / calib[0]
    b_ratio = base_row["ns_per_op"] / calib[1]
    ok = c_ratio <= b_ratio * (1 + threshold)
    print(
        f"  {name}: normalized {c_ratio:.3f} vs baseline {b_ratio:.3f}"
        f" ({(c_ratio / b_ratio - 1) * 100:+.1f}%;"
        f" raw {cur_row['ns_per_op']:.1f} vs {base_row['ns_per_op']:.1f}"
        f" ns/op) {'ok' if ok else 'REGRESSION'}"
    )
    if not ok:
        failures.append(
            f"{name}: normalized wall {c_ratio:.3f} exceeds baseline "
            f"{b_ratio:.3f} by more than {threshold * 100:.0f}%"
        )


def verdict(label, failures):
    """Prints the verdict; returns the exit code (0 pass, 1 regression)."""
    if failures:
        print(f"\n{label} gate FAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(f"{label} gate passed")
    return 0
