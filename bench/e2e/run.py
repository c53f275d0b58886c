#!/usr/bin/env python3
"""Entry point of the end-to-end benchmark (BENCHMARK.json "command").

    python3 bench/e2e/run.py --workload steady --seed 1 --seconds 10 --trace 0

Builds bench_e2e from this checkout's sources into .bench_build/e2e (the
first run builds; later runs only check that the build is current), runs
one workload with STAT4_EXEC_TIER unset, and prints the harness's report
followed, as the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs the workload
traced, writes the span file under .bench_build/traces and reports the
per-layer metrics that trace_report.py derives from it.  Exits 1 after
the result when an output did not match its reference (correct: false),
and exits non-zero printing no result when the build or the run fails or
when the trace's spans do not explain the producer's time.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = ROOT / ".bench_build"
BUILD = OUT / "e2e"
BINARY = BUILD / "bench_e2e"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))
import trace_report  # noqa: E402


def die(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds bench_e2e; compiler temporaries stay
    inside the checkout."""
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    log_path = OUT / "e2e-build.log"
    steps = []
    # Configure until it has produced a build system (a failed configure
    # can leave a cache behind).
    if not any((BUILD / f).exists() for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "bench_e2e",
                  "-j", "2"])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                r = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                   env=env, timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as e:
                die(f"build step {cmd[:2]} failed: {e}")
            if r.returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                die(f"build failed (log: {log_path})")


def declared(kind):
    """Metric names BENCHMARK.json declares for `kind` (end_to_end or
    per_layer)."""
    try:
        with open(ROOT / "BENCHMARK.json") as f:
            return [m["name"] for m in json.load(f)[kind]]
    except (OSError, ValueError, KeyError) as e:
        die(f"cannot read BENCHMARK.json: {e}")


def run(args, trace_path):
    cmd = [str(BINARY), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds)]
    if trace_path:
        cmd.append(f"--trace={trace_path}")
    env = {k: v for k, v in os.environ.items() if k != "STAT4_EXEC_TIER"}
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"bench_e2e timed out after {RUN_TIMEOUT_S} s")
    lines = r.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    # Exit 1 with a result is a mismatch the result reports (correct:
    # false); anything else is a crash.
    if result is None or r.returncode not in (0, 1):
        die(f"bench_e2e exited {r.returncode} without a result")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    trace_path = None
    if args.trace:
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        trace_path = OUT / "traces" / f"{args.workload}-{args.seed}.json"
    result = run(args, trace_path)

    if args.trace:
        with open(trace_path) as f:
            rep = trace_report.analyse(json.load(f))
        trace_report.print_report(rep)
        if rep["coverage"] < trace_report.MIN_COVERAGE:
            die("trace spans explain too little of the producer's time")
        metrics = {name: {"value": rep["per_layer"][name],
                          "unit": trace_report.PER_LAYER[name]}
                   for name in declared("per_layer")
                   if name in rep["per_layer"]}
        missing = set(declared("per_layer")) - set(metrics)
    else:
        metrics = {name: result["metrics"][name]
                   for name in declared("end_to_end")
                   if name in result["metrics"]}
        missing = set(declared("end_to_end")) - set(metrics)
    if missing:
        die(f"metrics missing from the run: {sorted(missing)}")
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
