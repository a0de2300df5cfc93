#!/usr/bin/env python3
"""Compares end-to-end benchmark results of a baseline and a change.

    python3 bench/e2e/compare.py BASE_DIR CHANGE_DIR
    python3 bench/e2e/compare.py RUNS_DIR          # spread of one side only

Each directory holds the JSON records bench_e2e appends with --json (one
object per line, in files named *.json or *.jsonl). Runs are paired in
order: the i-th record of a workload in BASE_DIR with the i-th in
CHANGE_DIR, files taken in name order. For every workload and metric the
script prints each side's median and quartiles and the fraction of pairs
the change wins (ties count for neither side).

The verdict for an end-to-end metric follows the bounds in BENCHMARK.json:

  improved    the change wins at least 9/10 of the pairs and the medians
              differ, in the better direction, by more than the baseline's
              interquartile range;
  worse       the change's median is worse than the baseline's by more
              than the metric's bound;
  unresolved  either side's interquartile range exceeds the bound (as a
              share of its median), unless every change run beats every
              baseline run;
  no worse    otherwise.

Per-layer metrics get medians and win fractions but no verdict. The exit
code is 1 when any end-to-end verdict is worse or unresolved.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(directory):
    """{workload: [record, ...]} in file-name and line order."""
    runs = {}
    paths = sorted(glob.glob(os.path.join(directory, "*.json")) +
                   glob.glob(os.path.join(directory, "*.jsonl")))
    for path in paths:
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                rec = json.loads(line)
                if rec.get("bench") == "e2e":
                    runs.setdefault(rec["workload"], []).append(rec)
    return runs


def values(records, source, name):
    return [r[source][name]["value"] for r in records
            if name in r.get(source, {})]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def spread(xs):
    q1, med, q3 = quartiles(xs)
    return (q3 - q1) / abs(med) if med else float("inf")


def better(a, b, direction):
    return a > b if direction == "higher" else a < b


def verdict(base, change, direction, bound):
    q1, base_med, q3 = quartiles(base)
    change_med = quartiles(change)[1]
    pairs = list(zip(base, change))
    wins = sum(better(c, b, direction) for b, c in pairs)
    win_frac = wins / len(pairs) if pairs else 0.0
    gap_better = better(change_med, base_med, direction)
    clear = (win_frac >= 0.9 and gap_better and
             abs(change_med - base_med) > q3 - q1)
    all_better = all(better(c, b, direction) for c in change for b in base)
    worse_by = ((base_med - change_med) if direction == "higher"
                else (change_med - base_med)) / abs(base_med)
    if all_better and clear:
        return "improved", win_frac
    if max(spread(base), spread(change)) > bound:
        return "unresolved", win_frac
    if worse_by > bound:
        return "worse", win_frac
    if clear:
        return "improved", win_frac
    return "no worse", win_frac


def fmt(xs):
    q1, med, q3 = quartiles(xs)
    return "%.5g [%.5g, %.5g]" % (med, q1, q3)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--benchmark",
                    default=os.path.join(HERE, "..", "..", "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.benchmark) as f:
        spec = json.load(f)
    base = load_runs(args.base)
    change = load_runs(args.change) if args.change else None
    if not base:
        sys.exit("compare.py: no bench_e2e records in " + args.base)

    bad = False
    metrics = ([("metrics", m) for m in spec["end_to_end"]] +
               [("layers", m) for m in spec["per_layer"]])
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in base:
            continue
        print("== %s (%d runs%s) ==" % (
            workload, len(base[workload]),
            " vs %d" % len(change.get(workload, [])) if change else ""))
        for source, m in metrics:
            b = values(base[workload], source, m["name"])
            if not b:
                continue
            if change is None:
                line = "  %-26s %-32s spread %.3f" % (m["name"], fmt(b),
                                                      spread(b))
                if "bound" in m:
                    line += " (bound %.2f, %s)" % (
                        m["bound"], "ok" if spread(b) < m["bound"] / 3
                        else "above a third of the bound")
                print(line)
                continue
            c = values(change.get(workload, []), source, m["name"])
            if not c:
                print("  %-26s missing from the change" % m["name"])
                bad = bad or "bound" in m
                continue
            if "bound" in m:
                v, wins = verdict(b, c, m["better"], m["bound"])
                bad = bad or v in ("worse", "unresolved")
            else:
                v = "-"
                wins = (sum(better(y, x, m["better"]) for x, y in zip(b, c)) /
                        max(1, min(len(b), len(c))))
            print("  %-26s base %-32s change %-32s wins %.2f  %s" % (
                m["name"], fmt(b), fmt(c), wins, v))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
