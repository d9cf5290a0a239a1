#!/usr/bin/env python3
"""Validate a burstsim JSONL trace against scripts/trace_event.schema.json.

Usage:
    python3 scripts/validate_trace.py TRACE.jsonl [--max-errors=N]
    python3 scripts/validate_trace.py TRACE.jsonl --perfetto TRACE.perfetto.json

Implements the schema's contract with no third-party dependencies (the
repository is dependency-free beyond the C++ toolchain). A line is either
a packet/transport trace event (TraceSink export) or a flight-recorder
sample (FlightRecorder export), discriminated by the "type" token; both
families are checked for required keys, no unknown keys, per-field
types/ranges, the cc_state_change <-> "state" pairing, the fr_sample
histogram shape, and nondecreasing timestamps (every export is sorted by
simulated time). Exits 0 when the trace is valid.

--perfetto FILE also cross-checks FILE, the Perfetto export of the same
TraceSink, against the JSONL: FILE must hold exactly one non-metadata
event per JSONL record, in the same order, each at ts == t * 1e6 and
with the name and phase its record type maps to (PERFETTO_EVENTS).

CI runs this on small traced scenarios (sequential, --lp=2, and a
flight-recorded run); see .github/workflows/ci.yml.
"""
import json
import pathlib
import sys

SCHEMA_PATH = pathlib.Path(__file__).resolve().parent / "trace_event.schema.json"

REQUIRED = ("t", "type", "site", "flow", "seq", "value", "aux", "detail")
OPTIONAL = ("state", "lp")
FR_REQUIRED = (
    "t",
    "type",
    "lp",
    "interval",
    "qlen",
    "red_avg",
    "events",
    "arrivals",
    "drops",
    "cov",
    "cwnd_mean",
    "cwnd_max",
    "cwnd_hist",
)
FR_HIST_BINS = 12


def load_schema_contract():
    """The TraceEventType enum and fr_sample key list, read from the
    schema so the two files cannot drift apart silently."""
    with SCHEMA_PATH.open() as f:
        schema = json.load(f)
    defs = schema["definitions"]
    tokens = defs["trace_event"]["properties"]["type"]["enum"]
    assert tokens, "schema lost its type enum"
    fr_required = defs["fr_sample"]["required"]
    assert tuple(fr_required) == FR_REQUIRED, (
        "schema fr_sample required keys drifted from validate_trace.py"
    )
    bins = defs["fr_sample"]["properties"]["cwnd_hist"]["minItems"]
    assert bins == FR_HIST_BINS, "schema cwnd_hist bin count drifted"
    return set(tokens)


# The Perfetto event (name, phase) TraceSink::write_chrome_trace writes
# for each JSONL record type. Queue occupancy and state changes take their
# name from the record: see perfetto_event.
PERFETTO_EVENTS = {
    "source_emit": ("app_emit", "i"),
    "queue_drop": ("drop", "i"),
    "link_deliver": ("deliver", "i"),
    "sink_ack": ("ack", "i"),
    "cwnd_change": ("cwnd", "C"),
    "ssthresh_change": ("ssthresh", "C"),
    "fast_retransmit": ("fast_retransmit", "i"),
    "rto": ("rto", "i"),
    "vegas_diff": ("vegas_diff", "C"),
    "congestion_event": ("congestion_event", "i"),
}


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def is_integer(v):
    return isinstance(v, int) and not isinstance(v, bool)


def check_fr_sample(rec):
    """Yields error strings for one parsed fr_sample record."""
    for key in FR_REQUIRED:
        if key not in rec:
            yield f"missing required key '{key}'"
    for key in rec:
        if key not in FR_REQUIRED:
            yield f"unknown key '{key}'"

    for key, lo in (("t", 0), ("qlen", 0), ("red_avg", -1), ("cov", 0),
                    ("cwnd_mean", 0), ("cwnd_max", 0)):
        v = rec.get(key)
        if v is None:
            continue
        if not is_number(v):
            yield f"'{key}' is not a number"
        elif v < lo:
            yield f"'{key}' out of range ({v})"

    interval = rec.get("interval")
    if interval is not None:
        if not is_number(interval):
            yield "'interval' is not a number"
        elif interval <= 0:
            yield f"'interval' is not positive ({interval})"

    for key in ("lp", "events", "arrivals", "drops"):
        v = rec.get(key)
        if v is None:
            continue
        if not is_integer(v):
            yield f"'{key}' is not an integer"
        elif v < 0:
            yield f"'{key}' is negative ({v})"

    hist = rec.get("cwnd_hist")
    if hist is not None:
        if not isinstance(hist, list) or len(hist) != FR_HIST_BINS:
            yield f"'cwnd_hist' is not a {FR_HIST_BINS}-element array"
        elif any(not is_integer(b) or b < 0 for b in hist):
            yield "'cwnd_hist' holds a non-counter element"


def check_trace_event(rec, tokens):
    """Yields error strings for one parsed trace-event record."""
    for key in REQUIRED:
        if key not in rec:
            yield f"missing required key '{key}'"
    for key in rec:
        if key not in REQUIRED and key not in OPTIONAL:
            yield f"unknown key '{key}'"

    t = rec.get("t")
    if not is_number(t):
        yield "'t' is not a number"
    elif t < 0:
        yield f"'t' is negative ({t})"

    typ = rec.get("type")
    if not isinstance(typ, str):
        yield "'type' is not a string"
    elif typ not in tokens:
        yield f"unknown type token '{typ}'"

    site = rec.get("site")
    if not isinstance(site, str) or not site:
        yield "'site' is not a non-empty string"

    for key, lo, hi in (("flow", -1, None), ("seq", -1, None),
                        ("detail", 0, 65535), ("lp", 0, 255)):
        v = rec.get(key)
        if v is None and key == "lp":
            continue  # lp is optional on trace events
        if not is_integer(v):
            yield f"'{key}' is not an integer"
            continue
        if v < lo or (hi is not None and v > hi):
            yield f"'{key}' out of range ({v})"

    for key in ("value", "aux"):
        v = rec.get(key)
        if not is_number(v):
            yield f"'{key}' is not a number"

    state = rec.get("state")
    if state is not None:
        if typ != "cc_state_change":
            yield f"'state' present on a '{typ}' record"
        elif not isinstance(state, str) or not state:
            yield "'state' is not a non-empty string"


def check_record(rec, tokens):
    """Yields error strings for one parsed record of either family."""
    if not isinstance(rec, dict):
        yield "record is not a JSON object"
        return
    if rec.get("type") == "fr_sample":
        yield from check_fr_sample(rec)
    else:
        yield from check_trace_event(rec, tokens)


def validate(path, max_errors):
    tokens = load_schema_contract()
    errors = 0
    records = 0
    prev_t = None

    def report(line_no, msg):
        nonlocal errors
        errors += 1
        if errors <= max_errors:
            print(f"{path}:{line_no}: {msg}", file=sys.stderr)

    with open(path) as f:
        for line_no, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                report(line_no, "blank line")
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                report(line_no, f"not valid JSON: {e}")
                continue
            records += 1
            for msg in check_record(rec, tokens):
                report(line_no, msg)
            t = rec.get("t") if isinstance(rec, dict) else None
            if isinstance(t, (int, float)) and not isinstance(t, bool):
                if prev_t is not None and t < prev_t:
                    report(line_no,
                           f"timestamps not sorted ({t} after {prev_t})")
                prev_t = t

    if records == 0:
        print(f"{path}: no records", file=sys.stderr)
        return 1
    if errors > max_errors:
        print(f"{path}: ... {errors - max_errors} further errors suppressed",
              file=sys.stderr)
    if errors:
        print(f"{path}: INVALID ({errors} errors in {records} records)",
              file=sys.stderr)
        return 1
    print(f"{path}: OK ({records} records)")
    return 0


def perfetto_event(rec):
    """The (name, phase) of the Perfetto event for one JSONL record."""
    typ = rec.get("type")
    if typ in ("queue_enqueue", "queue_dequeue"):
        return f"qlen {rec.get('site')}", "C"
    if typ == "cc_state_change":
        return f"state: {rec.get('state', '?')}", "i"
    return PERFETTO_EVENTS.get(typ, (None, None))


def cross_check(path, perfetto_path, max_errors):
    """Checks the Perfetto export against the JSONL export, event by record."""
    try:
        with open(perfetto_path) as f:
            doc = json.load(f)
        events = [e for e in doc["traceEvents"] if e.get("ph") != "M"]
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as e:
        print(f"{perfetto_path}: not a Perfetto trace-event export: {e}",
              file=sys.stderr)
        return 1
    errors = 0
    records = 0
    with open(path) as f:
        for line_no, line in enumerate(f, start=1):
            rec = json.loads(line)
            records += 1
            if records > len(events):
                continue
            ev = events[records - 1]
            name, ph = perfetto_event(rec)
            want = (name, ph, rec.get("t") * 1e6)
            got = (ev.get("name"), ev.get("ph"), ev.get("ts"))
            if got != want:
                errors += 1
                if errors <= max_errors:
                    print(f"{path}:{line_no}: Perfetto event {records} is "
                          f"{got}, want {want}", file=sys.stderr)
    if len(events) != records:
        errors += 1
        print(f"{perfetto_path}: {len(events)} events for {records} "
              f"records", file=sys.stderr)
    if errors:
        print(f"{perfetto_path}: DIFFERS from {path} ({errors} errors)",
              file=sys.stderr)
        return 1
    print(f"{perfetto_path}: OK ({records} events match {path})")
    return 0


def main():
    args = [a for a in sys.argv[1:]]
    max_errors = 20
    perfetto = None
    paths = []
    while args:
        a = args.pop(0)
        if a.startswith("--max-errors="):
            max_errors = int(a.split("=", 1)[1])
        elif a.startswith("--perfetto="):
            perfetto = a.split("=", 1)[1]
        elif a == "--perfetto" and args:
            perfetto = args.pop(0)
        elif a in ("-h", "--help"):
            print(__doc__)
            return 0
        elif a.startswith("--"):
            print(f"unknown option {a}\n{__doc__}", file=sys.stderr)
            return 2
        else:
            paths.append(a)
    if not paths or (perfetto is not None and len(paths) != 1):
        print(__doc__, file=sys.stderr)
        return 2
    rc = 0
    for p in paths:
        rc |= validate(p, max_errors)
    if perfetto is not None and rc == 0:
        rc = cross_check(paths[0], perfetto, max_errors)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
