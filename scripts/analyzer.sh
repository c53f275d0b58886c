#!/usr/bin/env bash
# GCC static analyzer (-fanalyzer) over the static-analysis layer itself.
#
# Compiles every src/analysis/*.cpp, src/sketch/*.cpp and src/control/ml/*.cpp
# translation unit, plus the p4sim op table's consumers outside src/analysis/
# (the interpreter, the threaded lowering, disassembler, dependency analyzer
# and both code emitters) and the other per-packet p4sim TUs (switch, table,
# parser, register file), with the interprocedural path-sensitive analyzer
# and fails on any finding — the verifier that gates everyone else's code
# gets a gate of its own, and the sketch/ML layers ride along because they
# are likewise single-TU-provable (no threads inside a TU, no externs,
# arithmetic-heavy code where -fanalyzer's bounds/taint paths actually bite).
#
# Suppressions policy: add -Wno-analyzer-* flags to a SUPPRESSIONS array only
# with a one-line triage comment naming the false-positive pattern.  The
# list shared by src/analysis/, the op-table consumers and the per-packet
# p4sim TUs is empty — all twenty-two TUs analyze clean on g++ 12 — and must
# stay that way; the sketch/ML list carries two triaged entries below.
#
# Usage: scripts/analyzer.sh   (CXX overrides the compiler, default g++)
set -euo pipefail
cd "$(dirname "$0")/.."

CXX=${CXX:-g++}

SUPPRESSIONS=(
  # (none — keep it that way; triage any addition here)
)

# g++ 12's -fanalyzer loses track of libstdc++ std::string internals once a
# TU's path count grows: in src/sketch/programs.cpp the third ProgramBuilder
# ("sketch_invertible") draws a malloc-leak and a use-of-uninitialized report
# against the builder's std::string name moving through Program's destructor,
# while the two identical builders earlier in the same TU analyze clean.
# Both verified false by inspection (take() moves the Program out; nothing in
# the flagged path reads uninitialized state) and by ASan/UBSan test runs.
SKETCH_ML_SUPPRESSIONS=(
  # std::string move through ~Program misread as leaking the SSO buffer.
  -Wno-analyzer-malloc-leak
  # same path reported as reading an uninitialized '<unknown>' in b.take().
  -Wno-analyzer-use-of-uninitialized-value
)

status=0
OP_TABLE_CONSUMERS=(
  src/p4sim/action.cpp
  src/p4sim/threaded.cpp
  src/p4sim/disasm.cpp
  src/p4sim/dependency.cpp
  src/p4sim/jit/transpiler.cpp
  src/p4gen/emitter.cpp
)
P4SIM_PACKET_PATH=(
  src/p4sim/switch.cpp
  src/p4sim/table.cpp
  src/p4sim/parser.cpp
  src/p4sim/register_file.cpp
)

for src in src/analysis/*.cpp "${OP_TABLE_CONSUMERS[@]}" \
    "${P4SIM_PACKET_PATH[@]}" src/sketch/*.cpp src/control/ml/*.cpp; do
  echo "analyzer: ${src}"
  extra=("${SUPPRESSIONS[@]+"${SUPPRESSIONS[@]}"}")
  case "${src}" in
    src/sketch/*|src/control/ml/*)
      extra+=("${SKETCH_ML_SUPPRESSIONS[@]}") ;;
  esac
  if ! "${CXX}" -std=c++20 -fanalyzer -Werror -Isrc \
      "${extra[@]+"${extra[@]}"}" \
      -c "${src}" -o /dev/null; then
    status=1
  fi
done

if [[ ${status} -ne 0 ]]; then
  echo "analyzer.sh: findings above — fix or triage a suppression" >&2
fi
exit ${status}
