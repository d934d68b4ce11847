#!/usr/bin/env python3
"""Compare B15 result sets written by `run.py --out`.

    python3 costbench/compare.py A.json B.json [A2.json B2.json ...]

The files come in (A, B) pairs, A being the parent and B the change; run
the pairs alternately, A first in one pair and B first in the next. For
every (workload, end-to-end metric) the script prints A's and B's median
and quartiles: over the repeats in the one file when one pair is given,
over the per-pair medians otherwise. The verdict uses the bound that
BENCHMARK.json fixes for the metric:

  unresolved  A's or B's spread (interquartile range over median) is wider
              than the bound, and not every B value is better than every
              A value
  worse       B's median is worse than A's by more than the bound
  better      B's median is better than A's by more than A's interquartile
              range and, over several pairs, B wins at least 9 in 10
  within      otherwise

The deterministic counts of each workload and seed (events, deliveries,
states, commits, ticks, export bytes) must be exactly equal. The exit code
is 1 when a metric is worse or a count differs.
"""

import json
import os
import statistics
import sys


def load(path):
    with open(path) as f:
        return {
            (run["seed"], name): result
            for run in json.load(f)["runs"]
            for name, result in run["workloads"].items()
        }


def quartiles(values):
    values = sorted(values)
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4)


def verdict(a, b, better, bound, wins, pairs):
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    spread = max((a_q3 - a_q1) / a_med, (b_q3 - b_q1) / b_med)
    worsening = (b_med - a_med) / a_med * (1 if better == "lower" else -1)
    all_better = max(b) < min(a) if better == "lower" else min(b) > max(a)
    if spread > bound and not all_better:
        return "unresolved"
    if worsening > bound:
        return "worse"
    if -worsening > (a_q3 - a_q1) / a_med and (pairs == 1 or wins >= 0.9 * pairs):
        return "better"
    return "within"


def main():
    paths = sys.argv[1:]
    if len(paths) < 2 or len(paths) % 2:
        sys.exit(__doc__)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    a_sets, b_sets = [load(p) for p in paths[0::2]], [load(p) for p in paths[1::2]]
    pairs = len(a_sets)
    failed = False
    for key in sorted(set.intersection(*(set(s) for s in a_sets + b_sets))):
        seed, name = key
        print(f"\n{name}  seed {seed}")
        mismatched = [i for i, (a, b) in enumerate(zip(a_sets, b_sets)) if a[key]["counts"] != b[key]["counts"]]
        print(f"  counts {'MISMATCH in pair ' + str(mismatched) if mismatched else 'exact'}")
        failed |= bool(mismatched)
        print(f"  {'metric':<14}{'A median':>12}{'[q1, q3]':>26}{'B median':>12}{'[q1, q3]':>26}{'change':>9}  verdict")
        for m in metrics:
            def values(sets):
                runs = [s[key]["end_to_end"][m["name"]] for s in sets]
                return runs[0]["values"] if pairs == 1 else [r["median"] for r in runs]

            a, b = values(a_sets), values(b_sets)
            sign = 1 if m["better"] == "lower" else -1
            wins = sum(
                sign * bs[key]["end_to_end"][m["name"]]["median"]
                < sign * as_[key]["end_to_end"][m["name"]]["median"]
                for as_, bs in zip(a_sets, b_sets)
            )
            result = verdict(a, b, m["better"], m["bound"], wins, pairs)
            failed |= result == "worse"
            (a_q1, a_med, a_q3), (b_q1, b_med, b_q3) = quartiles(a), quartiles(b)
            print(
                f"  {m['name']:<14}{a_med:>12.5g}{f'[{a_q1:.5g}, {a_q3:.5g}]':>26}"
                f"{b_med:>12.5g}{f'[{b_q1:.5g}, {b_q3:.5g}]':>26}"
                f"{100 * (b_med - a_med) / a_med:>+8.1f}%  {result}"
                + (f" (B won {wins}/{pairs} pairs)" if pairs > 1 else "")
            )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
