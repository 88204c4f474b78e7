#!/usr/bin/env python3
"""Compares two sets of benchmark results by BENCHMARK.json's rules.

    python3 perfbench/compare.py --base a1.json a2.json ... \\
                                 --new b1.json b2.json ...

Each file is one `run.py --out` record. For every (workload, end-to-end
metric) it prints both medians and quartiles, the new median's change in
the metric's better direction, and a verdict:

  regressed   the new median is worse than the base median by more than
              the metric's bound;
  unresolved  the base runs spread wider than the bound (quartile
              distance over median), so the change cannot be told apart;
  ok          otherwise.

Wall-clock metrics (units s, ms, us, ns, 1/s) are refused when the two
sets ran on different core counts; the other metrics are still compared.
Exits 1 when any metric regressed or was refused, else 0.
"""

import argparse
import json
import os
import statistics
import sys

WALL_CLOCK_UNITS = {"s", "ms", "us", "ns", "1/s"}


def load(paths):
    runs = {}
    for path in paths:
        with open(path) as f:
            record = json.load(f)
        provenance = record["provenance"]
        if provenance.get("trace"):
            continue
        runs.setdefault(provenance["workload"], []).append(record)
    return runs


def summary(values):
    values = sorted(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    base, new = load(args.base), load(args.new)
    bad = False
    for workload in sorted(set(base) & set(new)):
        cores = {r["provenance"]["nproc"] for r in base[workload]}
        cores |= {r["provenance"]["nproc"] for r in new[workload]}
        print("%s (base %d runs, new %d runs, nproc %s)" % (
            workload, len(base[workload]), len(new[workload]),
            sorted(cores)))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if len(cores) > 1 and metric["unit"] in WALL_CLOCK_UNITS:
                print("  %-16s refused: runs on differing core counts %s"
                      % (name, sorted(cores)))
                bad = True
                continue
            b = [r["result"]["metrics"][name]["value"]
                 for r in base[workload]]
            n = [r["result"]["metrics"][name]["value"]
                 for r in new[workload]]
            bq1, bmed, bq3 = summary(b)
            nq1, nmed, nq3 = summary(n)
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (nmed - bmed) / bmed if bmed else 0.0
            spread = (bq3 - bq1) / bmed if bmed else 0.0
            if worse > metric["bound"]:
                verdict = "regressed"
                bad = True
            elif spread > metric["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print("  %-16s base %.6g [%.6g, %.6g]  new %.6g [%.6g, %.6g]"
                  "  worse %+.1f%% (bound %.0f%%)  %s" % (
                      name, bmed, bq1, bq3, nmed, nq1, nq3, 100 * worse,
                      100 * metric["bound"], verdict))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
