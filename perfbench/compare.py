"""Compare two result sets of the latkern benchmark.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records that run.py appends with --results, one JSON
object per line.  For every workload and end-to-end metric it prints each
side's median, quartiles and number of runs, then a verdict:

  gain         the change wins at least 9/10 of the pairs (runs with the
               same seed; ties count for neither) and the medians differ
               by more than the parent's quartile spread
  regression   the change's median is worse than the parent's by more
               than the metric's bound in BENCHMARK.json
  unresolved   a side's quartile spread, as a share of its median, exceeds
               the bound, unless every change run beats every parent run
  same         none of the above

It also checks that both sides received identical inputs (the input
digest per workload and seed), and prints per-layer medians side by side
for traced records.  Exit status 1 when any metric regressed.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

WIN_SHARE = 0.9


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def better(a: float, b: float, direction: str) -> bool:
    """Whether a is strictly better than b."""
    return a > b if direction == "higher" else a < b


def paired(parent: list[dict], change: list[dict], name: str):
    """(parent value, change value) for runs with the same seed."""
    by_seed = {}
    for r in parent:
        by_seed.setdefault(r["seed"], []).append(r["metrics"][name]["value"])
    pairs = []
    for r in change:
        values = by_seed.get(r["seed"])
        if values:
            pairs.append((values.pop(0), r["metrics"][name]["value"]))
    return pairs


def verdict(parent, change, pairs, direction: str, bound: float) -> str:
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(1 for a, b in pairs if better(b, a, direction))
    if (pairs and wins >= WIN_SHARE * len(pairs)
            and better(cm, pm, direction) and abs(cm - pm) > p3 - p1):
        return f"gain ({wins}/{len(pairs)} pairs)"
    worse = (pm - cm if direction == "higher" else cm - pm)
    if pm and worse / abs(pm) > bound:
        return f"regression ({worse / abs(pm):+.1%} worse, bound {bound:.0%})"
    spread = max((p3 - p1) / abs(pm) if pm else 0.0,
                 (c3 - c1) / abs(cm) if cm else 0.0)
    every = all(better(b, a, direction) for a in parent for b in change)
    if spread > bound and not every:
        return f"unresolved (spread {spread:.1%} > bound {bound:.0%})"
    return "same"


def compare(parent_path: str, change_path: str, out=sys.stdout) -> int:
    with open(BENCHMARK, encoding="utf-8") as fh:
        bench = json.load(fh)
    parent, change = load(parent_path), load(change_path)
    regressions = 0
    workloads = [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        runs_p = [r for r in parent if r["workload"] == workload]
        runs_c = [r for r in change if r["workload"] == workload]
        if not runs_p or not runs_c:
            print(f"{workload}: missing on one side "
                  f"({len(runs_p)} parent, {len(runs_c)} change records)",
                  file=out)
            continue
        digests_p = {r["seed"]: r["input_digest"] for r in runs_p}
        digests_c = {r["seed"]: r["input_digest"] for r in runs_c}
        shared = sorted(set(digests_p) & set(digests_c))
        differ = [s for s in shared if digests_p[s] != digests_c[s]]
        print(f"{workload}: inputs "
              + (f"DIFFER for seeds {differ}" if differ else
                 f"identical for {len(shared)} shared seeds"), file=out)

        untraced_p = [r for r in runs_p if not r["trace"]]
        untraced_c = [r for r in runs_c if not r["trace"]]
        if untraced_p and untraced_c:
            print(f"  {'metric':14s} {'parent q1/median/q3 (n)':>36s}   "
                  f"{'change q1/median/q3 (n)':>36s}   verdict", file=out)
        for metric in bench["end_to_end"] if untraced_p and untraced_c else []:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in untraced_p]
            b = [r["metrics"][name]["value"] for r in untraced_c]
            v = verdict(a, b, paired(untraced_p, untraced_c, name),
                        metric["better"], metric["bound"])
            regressions += v.startswith("regression")
            qa, qb = quartiles(a), quartiles(b)
            print(f"  {name:14s} "
                  f"{qa[0]:11.5g} {qa[1]:11.5g} {qa[2]:11.5g} ({len(a):2d})   "
                  f"{qb[0]:11.5g} {qb[1]:11.5g} {qb[2]:11.5g} ({len(b):2d})   "
                  f"{v} [{metric['unit']}, {metric['better']} is better]",
                  file=out)

        traced_p = [r for r in runs_p if r["trace"]]
        traced_c = [r for r in runs_c if r["trace"]]
        if traced_p and traced_c:
            print("  per-layer medians (parent -> change):", file=out)
            for metric in bench["per_layer"]:
                name = metric["name"]
                a = statistics.median(r["metrics"][name]["value"]
                                      for r in traced_p)
                b = statistics.median(r["metrics"][name]["value"]
                                      for r in traced_c)
                print(f"    {name:36s} {a:12.6g} -> {b:12.6g} "
                      f"{metric['unit']}", file=out)
    return 1 if regressions else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(compare(sys.argv[1], sys.argv[2]))
