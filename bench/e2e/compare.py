#!/usr/bin/env python3
"""A/B rule for the end-to-end benchmark, with its bounds from BENCHMARK.json.

    python3 bench/e2e/compare.py --parent DIR --change DIR [--claim W:METRIC]
    python3 bench/e2e/compare.py --self DIR

DIR is a checkout (the benchmark builds itself there on its first run).
Both sides run the command BENCHMARK.json names, untraced, on every
workload, with its run_seconds and the same seeds.

A/B mode runs 10 pairs per workload (seeds 1-10), alternating which side
runs first, and prints one row per workload and metric: each side's median and
quartiles, the change in the median, and a verdict:
  REGRESSION  the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  the parent's own spread (quartile distance over median) is
              wider than the bound, and not every change run beats every
              parent run;
  gain        the change wins at least 90% of the pairs (ties count for
              neither) and the medians differ by more than the parent's
              quartile distance;
  same        otherwise.
--claim W:METRIC names a claimed gain; it is accepted only with the verdict
"gain".  Exits 1 on a regression, a rejected claim or an incorrect run.

--self runs two sets of runs of the same checkout back to back (seeds 1-10
each) and checks
that every metric's second median is within the bound of the first (in
either direction).  Exits 1 when a metric disagrees.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
FIRST_SEED = 1


def load_spec(checkout):
    with open(Path(checkout) / "BENCHMARK.json") as f:
        return json.load(f)


def run_once(spec, checkout, workload, seed, seconds):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.exit(f"compare.py: {workload} seed {seed} failed in {checkout}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"compare.py: {workload} seed {seed} produced wrong output "
                 f"in {checkout}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3


def worse_by(metric, base, other):
    """How much worse `other` is than `base`, as a share of `base`."""
    d = (other - base) / base
    return d if metric["better"] == "lower" else -d


def verdict(metric, parent, change):
    bound = metric["bound"]
    pm, pq1, pq3 = summary(parent)
    cm, _, _ = summary(change)
    better = (lambda c, p: c < p) if metric["better"] == "lower" else \
        (lambda c, p: c > p)
    wins = sum(better(c, p) for p, c in zip(parent, change))
    if worse_by(metric, pm, cm) > bound:
        return "REGRESSION", wins
    spread = (pq3 - pq1) / pm
    if spread > bound and not all(better(c, p) for c in change
                                  for p in parent):
        return "unresolved", wins
    if wins >= 0.9 * len(parent) and abs(cm - pm) > (pq3 - pq1):
        return "gain", wins
    return "same", wins


def row(workload, metric, a, b, extra):
    """One table row: each side's median [q1, q3] and spread (quartile
    distance over median), the change in the median, the verdict."""
    am, aq1, aq3 = summary(a)
    bm, bq1, bq3 = summary(b)
    delta = (bm - am) / am
    print(f"{workload:11s} {metric['name']:15s} "
          f"{am:11.5g} [{aq1:.5g}, {aq3:.5g}] {(aq3 - aq1) / am:5.1%}  "
          f"{bm:11.5g} [{bq1:.5g}, {bq3:.5g}] {(bq3 - bq1) / bm:5.1%}  "
          f"{delta:+7.1%} (bound {metric['bound']:.0%}, {metric['better']} "
          f"is better)  {extra}")


def ab(args, spec):
    claims = set(args.claim or [])
    bad = False
    print(f"{'workload':11s} {'metric':15s} "
          f"{'parent median [q1, q3] spread':>40s}  "
          f"{'change median [q1, q3] spread':>40s}  delta")
    for w in args.workloads:
        parent, change = [], []
        for p in range(PAIRS):
            seed = FIRST_SEED + p
            order = [("parent", args.parent), ("change", args.change)]
            if p % 2:
                order.reverse()
            for side, checkout in order:
                m = run_once(spec, checkout, w, seed, args.seconds)
                (parent if side == "parent" else change).append(m)
        for metric in spec["end_to_end"]:
            n = metric["name"]
            a = [r[n] for r in parent]
            b = [r[n] for r in change]
            v, wins = verdict(metric, a, b)
            claimed = f"{w}:{n}" in claims
            note = f"{v}, change won {wins}/{len(a)} pairs"
            if claimed:
                note += "; claim " + ("ACCEPTED" if v == "gain" else
                                      "REJECTED")
                bad |= v != "gain"
            bad |= v == "REGRESSION"
            row(w, metric, a, b, note)
    return 1 if bad else 0


def self_check(args, spec):
    bad = False
    print(f"{'workload':11s} {'metric':15s} "
          f"{'first median [q1, q3] spread':>40s}  "
          f"{'second median [q1, q3] spread':>40s}  delta")
    for w in args.workloads:
        sets = []
        for _ in range(2):
            sets.append([run_once(spec, args.self, w, FIRST_SEED + i,
                                  args.seconds) for i in range(PAIRS)])
        for metric in spec["end_to_end"]:
            n = metric["name"]
            a = [r[n] for r in sets[0]]
            b = [r[n] for r in sets[1]]
            ok = abs(statistics.median(b) - statistics.median(a)) \
                <= metric["bound"] * statistics.median(a)
            bad |= not ok
            row(w, metric, a, b, "agree" if ok else "DISAGREE")
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", help="checkout of the parent commit")
    ap.add_argument("--change", help="checkout of the change")
    ap.add_argument("--self", help="checkout to compare with itself")
    ap.add_argument("--claim", action="append",
                    help="claimed gain, WORKLOAD:METRIC (repeatable)")
    args = ap.parse_args()
    ab_mode = bool(args.parent and args.change)
    if bool(args.self) == ab_mode or (args.self and (args.parent or args.change)):
        ap.error("give --self DIR, or both --parent DIR and --change DIR")
    spec = load_spec(args.self or args.change)
    args.workloads = [w["name"] for w in spec["workloads"]]
    args.seconds = spec["run_seconds"]
    return self_check(args, spec) if args.self else ab(args, spec)


if __name__ == "__main__":
    sys.exit(main())
