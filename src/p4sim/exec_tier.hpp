// Execution-tier selection for a P4Switch pipeline.
//
// One walker (P4Switch::run_compiled) evaluates the stage guards, skips
// no-op stages and looks tables up through their compiled entry caches; the
// tier decides only how an action body runs:
//
//   kThreaded    — threaded code: each action pre-decoded into a flat
//                  stream of computed-goto handlers with pre-resolved
//                  operands (register base pointers, folded masks), so the
//                  per-op switch dispatch and ExecutionContext indirection
//                  disappear (threaded.hpp).
//   kNative      — each pipeline transpiled to a self-contained C++ TU,
//                  compiled by the host toolchain and dlopen'ed
//                  (jit/transpiler.hpp, jit/engine.hpp).  Falls back to
//                  kThreaded when no compiler is available or a program
//                  cannot be transpiled.
//   kReference   — the slow test oracle every other tier is differentially
//                  tested against: its own walker with a fresh, fully
//                  zeroed context per packet, linear table scans
//                  (MatchActionTable::lookup_linear) and the op-by-op
//                  interpreter (action.cpp execute()).
//
// All tiers hook the same invalidation protocol: any configuration write
// bumps config_gen_ and the next packet re-lowers the pipeline for the
// selected tier.  Tier selection never changes results — only speed
// (tests/exec_tier_differential_test.cpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace p4sim {

/// The numeric values appear in committed bench rows (bench_throughput's
/// active_tier counter) and in the differential suites' test names, so
/// they stay fixed.
enum class ExecTier : std::uint8_t {
  kThreaded = 1,
  kNative,
  kReference,
};

/// Stable names: "threaded", "native", "reference" (CLI flag / stats
/// values).
[[nodiscard]] const char* to_string(ExecTier tier) noexcept;

/// Parses a tier name; std::nullopt for anything unknown.
[[nodiscard]] std::optional<ExecTier> parse_exec_tier(
    std::string_view name) noexcept;

/// The tier newly constructed switches start on: the STAT4_EXEC_TIER
/// environment variable (any name parse_exec_tier accepts, read once per
/// process — the CI native-tier leg uses this) or kThreaded when unset or
/// unparseable.
[[nodiscard]] ExecTier default_exec_tier() noexcept;

}  // namespace p4sim
