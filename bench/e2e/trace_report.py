#!/usr/bin/env python3
"""Per-layer table of a traced bench_e2e run.

    python3 bench/e2e/trace_report.py TRACE.json

TRACE.json is what `bench_e2e --trace=FILE` writes: Chrome trace-event JSON
whose root spans are windows of the producer thread's work and whose
children are packed per-operation spans (args: id, parent, req, count).
The report gives, per window kind, each operation's calls and self time
(span minus children) as a share of the window time, its per-call p50/p99
from the sampled calls (one clock read subtracted), the harness-side
values (ring depth, parks, the p4sim probes, ...), the tracing overhead
(traced pps against untraced pps) and the coverage: the share of
root-span time that the child spans' self times explain.

Exits 1 when coverage is below 90%, i.e. when the layer rows do not
explain the producer's wall time.
"""

import argparse
import json
import sys
from collections import defaultdict

MIN_COVERAGE = 0.90

# The per-layer metrics every workload reports (BENCHMARK.json "per_layer"),
# with their units: the layers all four workloads cross.
PER_LAYER = {
    "gen.craft_ns.p50": "ns",
    "p4sim.parse_ns.p50": "ns",
    "p4sim.lookup_ns.p50": "ns",
    "p4sim.deparse_ns.p50": "ns",
    "p4sim.action_residual_ns.p50": "ns",
    "p4sim.process_ns.p50": "ns",
    "p4sim.process_ns.p99": "ns",
    "p4sim.first_packet_ms": "ms",
}


def quantile(values, q):
    """Linear-interpolation quantile, as the harness computes it."""
    if not values:
        return 0.0
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def analyse(trace):
    """Returns the report as a dict (see the module docstring)."""
    events = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
    other = trace["otherData"]
    values = other.get("values", {})
    clock = values.get("trace.clock_read_ns", 0.0)

    children = defaultdict(float)
    for e in events:
        if e["args"]["parent"]:
            children[e["args"]["parent"]] += e["dur"]
    roots = [e for e in events if not e["args"]["parent"]]
    by_id = {e["args"]["id"]: e for e in events}

    def root_of(e):
        while e["args"]["parent"]:
            e = by_id[e["args"]["parent"]]
        return e

    windows = defaultdict(lambda: {"wall_us": 0.0, "glue_us": 0.0,
                                   "ops": defaultdict(lambda: [0, 0.0])})
    for r in roots:
        w = windows[r["name"]]
        w["wall_us"] += r["dur"]
        w["glue_us"] += max(0.0, r["dur"] - children[r["args"]["id"]])
    for e in events:
        if not e["args"]["parent"]:
            continue
        w = windows[root_of(e)["name"]]
        row = w["ops"][e["name"]]
        row[0] += e["args"]["count"]
        row[1] += max(0.0, e["dur"] - children[e["args"]["id"]])

    wall = sum(w["wall_us"] for w in windows.values())
    glue = sum(w["glue_us"] for w in windows.values())
    coverage = 1.0 - glue / wall if wall > 0 else 0.0

    per_call = {}
    for name, op in other.get("ops", {}).items():
        s = [max(0.0, x - clock) for x in op["samples"]]
        if s:
            per_call[name] = {"calls": op["calls"], "p50": quantile(s, 0.5),
                              "p99": quantile(s, 0.99)}

    per_layer = {}
    for name in PER_LAYER:
        if name in values:
            per_layer[name] = values[name]
    if "gen.craft" in per_call:
        per_layer["gen.craft_ns.p50"] = per_call["gen.craft"]["p50"]

    pps = values.get("pps.untraced", 0.0)
    pps_traced = values.get("pps.traced", 0.0)
    derived = derive(windows, values, pps)
    return {
        "workload": other.get("workload"),
        "seed": other.get("seed"),
        "windows": {k: {"wall_us": v["wall_us"], "glue_us": v["glue_us"],
                        "ops": {n: {"calls": c, "self_us": t}
                                for n, (c, t) in v["ops"].items()}}
                    for k, v in windows.items()},
        "per_call": per_call,
        "values": values,
        "derived": derived,
        "per_layer": per_layer,
        "coverage": coverage,
        "overhead": {"pps_untraced": pps, "pps_traced": pps_traced,
                     "traced_over_untraced":
                         pps_traced / pps if pps > 0 else 0.0},
    }


def derive(windows, values, pps):
    """Ratios computed from the spans and values (see print_report)."""
    derived = {}
    trial = {k: w for k, w in windows.items() if not k.endswith(".replay")}
    wall = sum(w["wall_us"] for w in trial.values())
    ops = defaultdict(lambda: [0, 0.0])
    for w in trial.values():
        for name, (calls, self_us) in w["ops"].items():
            ops[name][0] += calls
            ops[name][1] += self_us
    if wall > 0 and "gen.craft" in ops:
        idle = ops["gen.wait"][1] + ops["runtime.inject_blocked"][1]
        derived["gen.busy_ratio"] = 1.0 - idle / wall
    if ops["runtime.poll"][0] and "runtime.digests_polled" in values:
        derived["runtime.digests_per_poll"] = \
            values["runtime.digests_polled"] / ops["runtime.poll"][0]
    if "runtime.ring_depth.p50" in values and "p4sim.process_ns.p50" in values:
        # Each of the 2 lanes delivers pps/2 packets per second, each
        # costing about the replayed process_into() time.
        derived["runtime.lane_busy_ratio"] = \
            pps / 2 * values["p4sim.process_ns.p50"] / 1e9
    return derived


def print_report(rep, out=sys.stdout):
    p = lambda *a: print(*a, file=out)  # noqa: E731
    p(f"trace of {rep['workload']} seed={rep['seed']}")
    for kind, w in sorted(rep["windows"].items()):
        p(f"\n{kind}: {w['wall_us'] / 1e3:.1f} ms of producer wall time")
        p(f"  {'op':28s} {'calls':>10s} {'self ms':>10s} {'share':>7s} "
          f"{'self ns/call':>12s} {'p50 ns':>8s} {'p99 ns':>8s}")
        rows = sorted(w["ops"].items(), key=lambda kv: -kv[1]["self_us"])
        for name, r in rows:
            pc = rep["per_call"].get(name, {})
            share = r["self_us"] / w["wall_us"] if w["wall_us"] else 0.0
            per = r["self_us"] * 1e3 / r["calls"] if r["calls"] else 0.0
            p(f"  {name:28s} {r['calls']:10d} {r['self_us'] / 1e3:10.2f} "
              f"{share:7.1%} {per:12.1f} {pc.get('p50', 0):8.0f} "
              f"{pc.get('p99', 0):8.0f}")
        share = w["glue_us"] / w["wall_us"] if w["wall_us"] else 0.0
        p(f"  {'(harness, unexplained)':28s} {'':10s} "
          f"{w['glue_us'] / 1e3:10.2f} {share:7.1%}")
    p("\nvalues measured outside the spans:")
    for k, v in sorted(rep["values"].items()):
        p(f"  {k:34s} {v:.6g}")
    p("derived (busy ratios over the traced trials; lane busy = untraced "
      "pps / 2 x replayed process_ns.p50):")
    for k, v in sorted(rep["derived"].items()):
        p(f"  {k:34s} {v:.6g}")
    o = rep["overhead"]
    p(f"\ntracing overhead: traced {o['pps_traced']:.6g} pps vs untraced "
      f"{o['pps_untraced']:.6g} pps ({o['traced_over_untraced']:.1%})")
    ok = rep["coverage"] >= MIN_COVERAGE
    p(f"coverage: span self times explain {rep['coverage']:.1%} of the "
      f"producer wall time ({'ok' if ok else 'BELOW'} {MIN_COVERAGE:.0%})")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trace")
    args = ap.parse_args()
    with open(args.trace) as f:
        rep = analyse(json.load(f))
    print_report(rep)
    return 0 if rep["coverage"] >= MIN_COVERAGE else 1


if __name__ == "__main__":
    sys.exit(main())
