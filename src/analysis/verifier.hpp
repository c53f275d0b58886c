// Stat4 static verifier: driver, target profiles, and analysis options.
//
// The verifier runs three IR-level passes over a p4sim program or a fully
// configured switch, all reporting into one DiagnosticEngine:
//
//   overflow    — interval/value-range propagation (overflow.hpp): proves or
//                 refutes, with a concrete witness range, that every register
//                 and field write fits its declared width for the configured
//                 observation count and field bounds;
//   hazards     — register access conflicts (hazards.hpp): multi-address
//                 access, RMW splits, cross-stage sharing;
//   constraints — target-profile lint (constraints.hpp): multiply on
//                 shift-only targets, instruction/stage/PHV/state budgets,
//                 plus a source-level scan of the p4gen emission for
//                 division/modulo/float/loops.
//
// The severity of hazard findings is keyed to the TargetProfile: bmv2 runs
// them as portability notes/warnings, `strict` escalates them to errors
// (single-RMW stateful ALUs, stage-pinned registers).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "analysis/interval.hpp"
#include "p4sim/action.hpp"
#include "p4sim/switch.hpp"

namespace analysis {

/// What the lint target supports.  Extends p4sim::AluProfile (the execution
/// gate) with the pipeline-shaped constraints a hardware compiler enforces.
struct TargetProfile {
  std::string name = "bmv2";
  bool has_mul = true;
  /// Target only shifts by compile-time constants (lookup-table shifters).
  bool const_shift_only = false;
  /// One indexed read-modify-write per register array per packet; violations
  /// (S4-HAZ-001/002) escalate from warning to error.
  bool single_access_registers = false;
  /// A register array is usable from exactly one pipeline stage; S4-HAZ-003
  /// escalates from note to error.
  bool single_stage_registers = false;
  std::size_t max_instructions = 4096;
  std::size_t max_stage_chain = 0;  ///< longest dependency chain; 0 = no cap
  std::size_t max_temps = p4sim::kTempCount;
  std::size_t max_state_bytes = 0;  ///< register memory budget; 0 = no cap

  /// bmv2 software target: everything goes (the profile the simulator runs).
  [[nodiscard]] static TargetProfile bmv2();
  /// A multiplier-less ASIC that still has a barrel shifter (the "some
  /// hardware switches cannot square" target of Section 2).
  [[nodiscard]] static TargetProfile hardware_nomul();
  /// A strict pipeline ASIC: no multiplier, constant shifts only, single-RMW
  /// stage-pinned registers, 12-ish stage budget.  Used to prove programs
  /// portable — and by the seeded-violation fixtures.
  [[nodiscard]] static TargetProfile strict();
  /// Lookup by name ("bmv2", "hardware-nomul", "strict"); throws
  /// std::invalid_argument on anything else.
  [[nodiscard]] static TargetProfile by_name(const std::string& name);

  [[nodiscard]] p4sim::AluProfile alu() const {
    return p4sim::AluProfile{has_mul, max_instructions};
  }
};

struct AnalysisOptions {
  TargetProfile profile = TargetProfile::bmv2();
  /// Observation budget N the overflow pass proves width-compliance for: the
  /// number of packets a distribution absorbs between controller resets.
  /// The paper's variance identity var(NX) = N*Xsumsq - Xsum^2 cubes this
  /// bound (Section 2.2), so 64-bit registers cap it near 2^21 — the default
  /// leaves a 2x margin below that cliff and the analyzer proves it.
  std::uint64_t max_observations = std::uint64_t{1} << 20;
  /// Upper bound on the ingress timestamp (ns since boot); ~78 hours.
  std::uint64_t timestamp_bound_ns = std::uint64_t{1} << 48;
  /// Per-field overrides of the natural header-width value bounds.
  std::vector<std::pair<p4sim::FieldRef, std::uint64_t>> field_bounds;
  /// Program-level entry only: value bounds of action_data words (defaults
  /// to [0,0] like the executor's missing-param behaviour).
  std::vector<Interval> param_bounds;
  bool run_overflow = true;
  bool run_hazards = true;
  bool run_constraints = true;
  /// Switch-level only: also lint the p4gen emission for div/mod/float/loop.
  bool lint_emitted_p4 = true;
};

/// Final proven bound of one register array — the "prove" artifact the CLI
/// prints alongside any diagnostics.
struct RegisterBound {
  std::string name;
  unsigned width_bits = 64;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;   ///< clamped to 2^64-1 for display
  bool exceeds_width = false;
};

struct AnalysisResult {
  DiagnosticEngine diags;
  std::vector<RegisterBound> register_bounds;
  /// Observations the bounds cover: `max_observations` unless a fixpoint
  /// came first, then the exact steps that reached it.  Not the abstract
  /// packets executed (PrecisionResult::iterations counts those).
  std::size_t iterations = 0;
  bool fixpoint = false;           ///< state stabilized before the budget
  bool extrapolated = false;       ///< polynomial acceleration was applied
  [[nodiscard]] bool ok() const noexcept { return !diags.has_errors(); }
};

/// Analyze one straight-line program against explicitly declared registers.
/// This is the fixture entry point: it works on programs that
/// P4Switch::add_action would reject (e.g. kMul on a no-mul profile), which
/// is exactly what a pre-deployment linter must catch.
[[nodiscard]] AnalysisResult verify_program(const p4sim::Program& program,
                                            const p4sim::RegisterFile& regs,
                                            const AnalysisOptions& options);

/// Analyze a fully configured switch: every action reachable from the
/// pipeline, with action-data bounds joined over the actually installed
/// table entries (plus defaults), hazards across stages, target constraints,
/// and — when enabled — the emitted P4 source.
[[nodiscard]] AnalysisResult verify_switch(const p4sim::P4Switch& sw,
                                           const AnalysisOptions& options);

}  // namespace analysis
