#!/usr/bin/env python3
"""Compare, summarise and pin benchmark results recorded by run.py --record.

usage:
  python3 perfbench/compare.py PARENT.jsonl CHILD.jsonl   # the regression gate
  python3 perfbench/compare.py --spread RESULTS.jsonl      # quartile spread
  python3 perfbench/compare.py --pin RESULTS.jsonl         # update pins.json
  python3 perfbench/compare.py --self-test                 # the gate can fail

The gate flags, per workload, every end-to-end metric whose median got
worse than the parent's by more than its BENCHMARK.json bound, and every
output digest that differs for the same workload and seed. It exits 1
when anything is flagged.
"""
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent / "BENCHMARK.json"
PINS = HERE / "pins.json"


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def by_workload(records):
    """{workload: {metric: [values]}} over the end-to-end (trace 0) records."""
    out = defaultdict(lambda: defaultdict(list))
    for r in records:
        if r.get("trace", 0) == 0:
            for name, m in r["metrics"].items():
                out[r["workload"]][name].append(m["value"])
    return out


def digests(records):
    """{(workload, seed, digest name): hex}."""
    return {(r["workload"], r["seed"], k): v
            for r in records for k, v in r["digests"].items()}


def compare(parent, child, bench):
    """Returns the list of regressions of @p child against @p parent."""
    flags = []
    p, c = by_workload(parent), by_workload(child)
    for m in bench["end_to_end"]:
        for w in sorted(set(p) & set(c)):
            if not p[w][m["name"]] or not c[w][m["name"]]:
                continue
            pm = statistics.median(p[w][m["name"]])
            cm = statistics.median(c[w][m["name"]])
            worse = (cm - pm) / pm if m["better"] == "lower" else (pm - cm) / pm
            if worse > m["bound"]:
                flags.append(f"{w} {m['name']}: {cm:.6g} vs parent {pm:.6g} "
                             f"({worse:+.1%} worse, bound {m['bound']:.0%})")
    pd, cd = digests(parent), digests(child)
    for key in sorted(set(pd) & set(cd)):
        if pd[key] != cd[key]:
            flags.append(f"{key[0]} seed {key[1]} digest {key[2]}: "
                         f"{cd[key]} vs parent {pd[key]}")
    flags += [f"{r['workload']} seed {r['seed']}: {r['failed']} failed checks"
              for r in child if r["failed"]]
    return flags


def spread(records, bench):
    """Prints each end-to-end metric's median and quartile spread / median."""
    ok = True
    for w, metrics in sorted(by_workload(records).items()):
        for m in bench["end_to_end"]:
            vals = metrics.get(m["name"], [])
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            s = (q3 - q1) / med
            steady = m["name"] == "setup_s" or s < m["bound"] / 3
            ok &= steady
            print(f"{w:18} {m['name']:14} n={len(vals):2} median={med:<12.6g} "
                  f"spread={s:6.2%} bound/3={m['bound'] / 3:6.2%}"
                  f"{'' if steady else '  NOT STEADY'}")
    return ok


def pin(records):
    """Pins the digests of every passing record into pins.json."""
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    for r in records:
        if r["failed"] == 0:
            pins.setdefault(r["workload"], {})[str(r["seed"])] = r["digests"]
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def self_test(bench):
    """A 20%-slower wall_s and a changed digest must both be flagged; an
    unchanged child must not be; a flipped pin must fail a check."""
    import run  # the same pin check run.py applies

    def rec(seed, wall, digest):
        return {"workload": "paper_campaign", "seed": seed, "trace": 0,
                "failed": 0, "digests": {"paper_campaign": digest},
                "metrics": {"setup_s": {"value": 0.005, "unit": "s"},
                            "wall_s": {"value": wall, "unit": "s"},
                            "simsec_per_s": {"value": 2740 / wall, "unit": "1/s"},
                            "peak_rss_mb": {"value": 60.0, "unit": "MB"}}}

    parent = [rec(s, 10.0 + 0.05 * (s % 3), f"{s:016x}") for s in range(10)]
    same = [dict(r) for r in parent]
    slower = [dict(r, metrics=dict(r["metrics"],
                                   wall_s={"value": 1.2 * r["metrics"]["wall_s"]["value"],
                                           "unit": "s"}))
              for r in parent]
    changed = [dict(r, digests={"paper_campaign": "f" * 16}) if r["seed"] == 3
               else r for r in parent]
    cases = [("unchanged child passes", compare(parent, same, bench) == []),
             ("20% slower wall_s is flagged",
              any("wall_s" in f for f in compare(parent, slower, bench))),
             ("changed digest is flagged",
              any("digest" in f for f in compare(parent, changed, bench)))]
    pins = {"paper_campaign": {"1": {"paper_campaign": "0" * 16}}}
    cases.append(("flipped pin fails a check",
                  run.pin_checks("paper_campaign", 1,
                                 {"paper_campaign": "1" * 16}, pins) == (1, 1)))
    cases.append(("matching pin passes",
                  run.pin_checks("paper_campaign", 1,
                                 {"paper_campaign": "0" * 16}, pins) == (1, 0)))
    for name, ok in cases:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    return all(ok for _, ok in cases)


def main(argv):
    bench = json.loads(BENCH.read_text())
    if argv == ["--self-test"]:
        return 0 if self_test(bench) else 1
    if len(argv) == 2 and argv[0] == "--spread":
        return 0 if spread(load(argv[1]), bench) else 1
    if len(argv) == 2 and argv[0] == "--pin":
        pin(load(argv[1]))
        return 0
    if len(argv) == 2 and not argv[0].startswith("--"):
        flags = compare(load(argv[0]), load(argv[1]), bench)
        for f in flags:
            print(f"REGRESSION {f}")
        print(f"{len(flags)} flagged")
        return 1 if flags else 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
