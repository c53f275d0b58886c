#!/usr/bin/env python3
"""Execution-tier speedup gate for CI (docs/PERFORMANCE.md, "Execution
tiers").

Reads a bench_throughput JSON report and enforces:

  1. The threaded tier holds >= 2x over the interpreter baseline the tiers
     were introduced against: 455 ns/packet on BM_SwitchTrackFreqPacket
     (the committed BENCH_throughput.json at the time src/p4sim/threaded.*
     and src/p4sim/jit/ landed; that interpreter tier and its row are
     gone).  The baseline is a frozen constant, so the gate measures what
     the threaded tier delivers over the committed pre-tier state.
  2. Tier ordering within the same run: native <= threaded.  Same-run
     ratios cancel out machine speed, so an inversion always means a real
     regression in a tier, never a slow runner.

Usage: check_tier_speedup.py BENCH_throughput.json
"""

import json
import sys

# BM_SwitchTrackFreqPacket ns/packet in the committed baseline immediately
# before the execution tiers landed (interpreter fast path).
PRE_TIER_INTERP_NS = 455.0
REQUIRED_SPEEDUP = 2.0


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1], encoding="utf-8") as f:
        report = json.load(f)

    times = {
        b["name"]: float(b["cpu_time_ns_per_iter"])
        for b in report["benchmarks"]
    }
    try:
        threaded = times["BM_SwitchTrackFreqPacketThreaded"]
        native = times["BM_SwitchTrackFreqPacketJit"]
    except KeyError as missing:
        print(f"tier gate: benchmark {missing} missing from report",
              file=sys.stderr)
        return 1

    ok = True
    speedup = PRE_TIER_INTERP_NS / threaded
    print(f"threaded {threaded:.1f} ns vs pre-tier interpreter "
          f"{PRE_TIER_INTERP_NS:.0f} ns: {speedup:.2f}x "
          f"(required >= {REQUIRED_SPEEDUP}x)")
    if speedup < REQUIRED_SPEEDUP:
        print("tier gate: FAIL - threaded tier lost its 2x speedup",
              file=sys.stderr)
        ok = False

    print(f"same-run ordering: native {native:.1f} <= threaded "
          f"{threaded:.1f} ns (native {threaded / native:.1f}x vs threaded)")
    if not native <= threaded:
        print("tier gate: FAIL - tier ordering inverted", file=sys.stderr)
        ok = False

    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
