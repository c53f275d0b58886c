#!/usr/bin/env python3
"""Compare two bench_throughput JSON reports and fail on regressions.

Usage:
    scripts/bench_compare.py BASELINE.json CANDIDATE.json [options]

Compares real_time_ns_per_iter for every benchmark present in BOTH files
and exits non-zero when any benchmark regressed by more than the threshold
(default 25%).  Benchmarks only present on one side are reported but never
fail the comparison (new benchmarks appear, old ones retire).

Multi-threaded benchmarks (FleetRunnerFanOut and the two-thread
FleetHandoff) are *reported* but excluded from the pass/fail gate by
default: on shared CI runners their timings are scheduler noise, not code.
Use --include-threaded to gate on them too (sensible on quiet dedicated
hardware).

With --static the inputs are `stat4_opt --json` reports instead: for every
app present in BOTH files, the post-optimization static costs
(instructions, stages, temps, registers, state_bytes) are compared, and
any axis that GREW by more than the threshold fails the gate.  Static
costs are deterministic, so the default threshold is 0 in this mode —
any growth is a real change someone must bless by regenerating the
baseline (scripts/bench.sh writes BENCH_static_costs.json).

With --precision the inputs are `stat4_lint --precision --json` reports:
for every app present in BOTH files, the proven per-output error bounds
(raw Q32 `err_q32`, per register array and per written field) are
compared exactly.  These are proofs, not measurements — a bound that
LOOSENS by even one Q32 unit fails the gate, a bound that tightens is
reported as "better" and passes.  Regenerate the committed baseline to
bless an intentional change:
`build/tools/stat4_lint --app=all --precision --json > BENCH_precision_bounds.json`.

Exit codes: 0 ok, 1 regression past threshold, 2 usage/input error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

THREADED_PATTERNS = (
    re.compile(r"^BM_FleetRunnerFanOut/"),
    re.compile(r"^BM_FleetHandoff/"),
)


def load_benchmarks(path, allow_missing=False):
    """Returns {name: real_time_ns_per_iter} from a bench_throughput JSON.

    An unreadable file is always a hard error (exit 2).  A readable file
    without a usable `benchmarks` block exits 2 too, unless
    `allow_missing` — then it returns {} so the caller can skip the
    comparison with a note (a baseline predating a newly added block must
    not crash the gate with a traceback).
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    benches = doc.get("benchmarks") if isinstance(doc, dict) else None
    out = {}
    for bench in benches if isinstance(benches, list) else []:
        if not isinstance(bench, dict):
            continue
        name = bench.get("name")
        t = bench.get("real_time_ns_per_iter")
        if name and isinstance(t, (int, float)) and t > 0:
            out[name] = float(t)
    if not out and not allow_missing:
        print(f"bench_compare: no benchmarks in {path}", file=sys.stderr)
        sys.exit(2)
    return out


def is_threaded(name):
    return any(p.match(name) for p in THREADED_PATTERNS)


STATIC_AXES = ("instructions", "stages", "temps", "registers", "state_bytes")


def load_static_costs(path, allow_missing=False):
    """Returns {"app/axis": after_value} from a stat4_opt --json report.

    Same contract as load_benchmarks: unreadable -> exit 2; readable but
    empty/malformed -> exit 2, or {} with `allow_missing`.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    out = {}
    for entry in doc if isinstance(doc, list) else []:
        if not isinstance(entry, dict):
            continue
        app = entry.get("app")
        cost = entry.get("cost")
        if not app or not isinstance(cost, dict):
            continue
        for axis in STATIC_AXES:
            axis_cost = cost.get(axis)
            after = axis_cost.get("after") if isinstance(axis_cost, dict) \
                else None
            if isinstance(after, (int, float)):
                out[f"{app}/{axis}"] = float(after)
    if not out and not allow_missing:
        print(f"bench_compare: no static costs in {path}", file=sys.stderr)
        sys.exit(2)
    return out


def skip_note(path, block):
    print(
        f"bench_compare: {path} has no '{block}' block — baseline predates "
        "it; skipping the comparison (regenerate the baseline to arm the "
        "gate)"
    )
    return 0


def compare_static(args):
    base = load_static_costs(args.baseline, allow_missing=True)
    if not base:
        return skip_note(args.baseline, "cost")
    cand = load_static_costs(args.candidate)
    # An app the baseline tracks but the candidate report lacks is not a
    # "retirement" to wave through: either the catalog lost an app or the
    # candidate run is incomplete.  Hard input error, named per app.
    base_apps = {name.split("/", 1)[0] for name in base}
    cand_apps = {name.split("/", 1)[0] for name in cand}
    missing = sorted(base_apps - cand_apps)
    if missing:
        for app in missing:
            print(
                f"bench_compare: baseline app '{app}' is missing from "
                f"{args.candidate} (catalog lost an app, or the candidate "
                "report is incomplete)",
                file=sys.stderr,
            )
        return 2
    limit = 1.0 + args.threshold / 100.0
    failures = []
    width = max(len(n) for n in set(base) | set(cand))
    print(f"{'app/axis':<{width}}  {'base':>12}  {'cand':>12}  status")
    for name in sorted(set(base) | set(cand)):
        if name not in base or name not in cand:
            status = "new" if name not in base else "retired"
            v = cand.get(name, base.get(name))
            print(f"{name:<{width}}  {'':>12}  {v:12.0f}  {status}")
            continue
        b, c = base[name], cand[name]
        if c > b * limit:
            status = "FAIL"
            failures.append(name)
        elif c < b:
            status = "better"
        else:
            status = "ok"
        print(f"{name:<{width}}  {b:12.0f}  {c:12.0f}  {status}")
    if failures:
        print(
            f"\nbench_compare: {len(failures)} static cost(s) grew more than "
            f"{args.threshold:.0f}% vs {args.baseline}:",
            file=sys.stderr,
        )
        for name in failures:
            print(f"  {name}: {base[name]:.0f} -> {cand[name]:.0f}",
                  file=sys.stderr)
        print("regenerate the baseline if intended: "
              "build/tools/stat4_opt --app=all --json > BENCH_static_costs.json",
              file=sys.stderr)
        return 1
    print(f"\nbench_compare: static costs ok ({args.threshold:.0f}% threshold)")
    return 0


def load_precision_bounds(path, allow_missing=False):
    """Returns {"app/kind/name": err_q32} from a stat4_lint --precision JSON.

    `kind` is "reg" or "field".  err_q32 is serialized as a decimal string
    (it can exceed 2^63); parsed back to int here.  Same contract as the
    other loaders: unreadable -> exit 2; readable but empty/malformed ->
    exit 2, or {} with `allow_missing`.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    out = {}
    for entry in doc if isinstance(doc, list) else []:
        if not isinstance(entry, dict):
            continue
        app = entry.get("app")
        if not app:
            continue
        for kind, block in (("reg", "registers"), ("field", "fields")):
            bounds = entry.get(block)
            for b in bounds if isinstance(bounds, list) else []:
                if not isinstance(b, dict) or not b.get("name"):
                    continue
                try:
                    err = int(b.get("err_q32"))
                except (TypeError, ValueError):
                    continue
                out[f"{app}/{kind}/{b['name']}"] = err
    if not out and not allow_missing:
        print(f"bench_compare: no precision bounds in {path}", file=sys.stderr)
        sys.exit(2)
    return out


def compare_precision(args):
    if args.threshold:
        # Bounds are proofs; a percentage slack makes no sense here.
        print("bench_compare: --precision ignores --threshold "
              "(comparison is exact)", file=sys.stderr)
    base = load_precision_bounds(args.baseline, allow_missing=True)
    if not base:
        return skip_note(args.baseline, "registers/fields")
    cand = load_precision_bounds(args.candidate)
    base_apps = {name.split("/", 1)[0] for name in base}
    cand_apps = {name.split("/", 1)[0] for name in cand}
    missing = sorted(base_apps - cand_apps)
    if missing:
        for app in missing:
            print(
                f"bench_compare: baseline app '{app}' is missing from "
                f"{args.candidate} (catalog lost an app, or the candidate "
                "report is incomplete)",
                file=sys.stderr,
            )
        return 2
    failures = []
    width = max(len(n) for n in set(base) | set(cand))
    print(f"{'app/kind/name':<{width}}  {'base err_q32':>22}  "
          f"{'cand err_q32':>22}  status")
    for name in sorted(set(base) | set(cand)):
        if name not in base or name not in cand:
            status = "new" if name not in base else "retired"
            v = cand.get(name, base.get(name))
            print(f"{name:<{width}}  {'':>22}  {v:22d}  {status}")
            continue
        b, c = base[name], cand[name]
        if c > b:
            status = "FAIL"
            failures.append(name)
        elif c < b:
            status = "better"
        else:
            status = "ok"
        print(f"{name:<{width}}  {b:22d}  {c:22d}  {status}")
    if failures:
        print(
            f"\nbench_compare: {len(failures)} proven error bound(s) "
            f"loosened vs {args.baseline}:",
            file=sys.stderr,
        )
        for name in failures:
            print(f"  {name}: {base[name]} -> {cand[name]} (Q32)",
                  file=sys.stderr)
        print("regenerate the baseline if intended: "
              "build/tools/stat4_lint --app=all --precision --json "
              "> BENCH_precision_bounds.json",
              file=sys.stderr)
        return 1
    print("\nbench_compare: precision bounds ok (exact comparison)")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", help="committed baseline JSON")
    ap.add_argument("candidate", help="freshly measured JSON")
    ap.add_argument(
        "--threshold",
        type=float,
        default=None,
        metavar="PCT",
        help="max allowed slowdown in percent (default: 25, or 0 with "
        "--static)",
    )
    ap.add_argument(
        "--include-threaded",
        action="store_true",
        help="gate on multi-threaded fan-out benchmarks too",
    )
    ap.add_argument(
        "--static",
        action="store_true",
        help="inputs are stat4_opt --json static-cost reports; gate on "
        "post-optimization cost growth (threshold defaults to 0)",
    )
    ap.add_argument(
        "--precision",
        action="store_true",
        help="inputs are stat4_lint --precision --json reports; gate on "
        "any proven error bound loosening (exact comparison)",
    )
    args = ap.parse_args(argv)

    if args.static and args.precision:
        print("bench_compare: --static and --precision are mutually "
              "exclusive", file=sys.stderr)
        return 2
    if args.threshold is None:
        args.threshold = 0.0 if (args.static or args.precision) else 25.0
    if args.precision:
        return compare_precision(args)
    if args.static:
        return compare_static(args)

    base = load_benchmarks(args.baseline, allow_missing=True)
    if not base:
        return skip_note(args.baseline, "benchmarks")
    cand = load_benchmarks(args.candidate)
    limit = 1.0 + args.threshold / 100.0

    rows = []
    failures = []
    for name in sorted(set(base) | set(cand)):
        if name not in base:
            rows.append((name, None, cand[name], None, "new"))
            continue
        if name not in cand:
            rows.append((name, base[name], None, None, "retired"))
            continue
        ratio = cand[name] / base[name]
        gated = args.include_threaded or not is_threaded(name)
        if ratio > limit and gated:
            status = "FAIL"
            failures.append(name)
        elif ratio > limit:
            status = "slow (ungated)"
        elif ratio < 1.0 / limit:
            status = "faster"
        else:
            status = "ok"
        if not gated and status in ("ok", "faster"):
            status += " (ungated)"
        rows.append((name, base[name], cand[name], ratio, status))

    width = max(len(r[0]) for r in rows)
    print(f"{'benchmark':<{width}}  {'base ns':>12}  {'cand ns':>12}  "
          f"{'ratio':>7}  status")
    for name, b, c, ratio, status in rows:
        bs = f"{b:12.1f}" if b is not None else " " * 12
        cs = f"{c:12.1f}" if c is not None else " " * 12
        rs = f"{ratio:7.3f}" if ratio is not None else " " * 7
        print(f"{name:<{width}}  {bs}  {cs}  {rs}  {status}")

    if failures:
        print(
            f"\nbench_compare: {len(failures)} benchmark(s) regressed more "
            f"than {args.threshold:.0f}% vs {args.baseline}:",
            file=sys.stderr,
        )
        for name in failures:
            print(f"  {name}: {base[name]:.1f} -> {cand[name]:.1f} ns/iter "
                  f"({cand[name] / base[name]:.2f}x)", file=sys.stderr)
        return 1
    print(f"\nbench_compare: ok ({args.threshold:.0f}% threshold)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
