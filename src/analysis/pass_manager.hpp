// PassManager: runs the transform passes (passes.hpp) to fixpoint over a
// program or a fully configured switch.
//
// Each iteration applies every enabled pass in canonical order — constprop,
// strength, cse, dce, then (switch-level) pack — to every registered
// action, under the cross-stage PassContext derived from the pipeline:
// which temps an earlier stage may have written (not zero on entry) and
// which temps a later stage may read (must survive).  Actions are treated
// as dispatchable from every table stage, because the controller can
// table_add any action at runtime — so every rewrite stays valid under
// future table mutations.  Iterations repeat until a full round applies no
// rewrite (the fixpoint) or the iteration budget runs out (S4-OPT-007).
//
// Results carry per-pass rewrite statistics, S4-OPT diagnostics in the
// shared DiagnosticEngine, and a static cost report (instructions, stages,
// temps, registers, state bytes) measured before and after — the artifact
// stat4_opt/stat4_lint expose and scripts/bench_compare.py tracks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "analysis/passes.hpp"
#include "analysis/verifier.hpp"
#include "p4sim/action.hpp"
#include "p4sim/switch.hpp"

namespace analysis {

/// Canonical pass order; `passes` selections run in this order regardless
/// of how they are listed.
[[nodiscard]] const std::vector<std::string>& pass_names();

/// Per-pass translation validation (validate.hpp) as a post-condition.
enum class ValidateMode : std::uint8_t {
  kOff,
  kOn,      ///< validate every pass; sampling fallback is a warning
  kStrict,  ///< sampling fallback and budget exhaustion are errors
};

struct PassManagerOptions {
  TargetProfile profile = TargetProfile::bmv2();
  /// Subset of pass_names() to run; empty = all.  Unknown names throw
  /// std::invalid_argument.
  std::vector<std::string> passes;
  /// Fixpoint iteration budget; exceeded => S4-OPT-007 warning.
  std::size_t max_iterations = 8;
  /// Re-prove every pass's output equivalent to its input (S4-TV-*
  /// diagnostics); refuted rewrites are reverted, not installed.
  ValidateMode validate = ValidateMode::kOff;
  /// TEST HOOK: runs on each pass's output (program, pass name) before it
  /// is validated — lets tests break a pass (drop a store, flip an opcode)
  /// and assert the validator refutes it.  Setting it forces validation on.
  std::function<void(p4sim::Program&, const std::string&)> post_pass_mutation;
};

/// Static cost of a pipeline — the resource axes the paper budgets.
struct CostSummary {
  std::size_t instructions = 0;  ///< over pipeline-reachable actions
  std::size_t stages = 0;
  std::size_t temps = 0;      ///< PHV scratch words (highest temp + 1)
  std::size_t registers = 0;  ///< register arrays referenced
  std::size_t state_bytes = 0;
};

/// Cost of the currently reachable pipeline: direct-stage actions plus
/// every action a table stage can currently dispatch (live entries and the
/// default), counted once each.
[[nodiscard]] CostSummary measure_cost(const p4sim::P4Switch& sw);
/// Program-level cost (stages/registers/state not applicable).
[[nodiscard]] CostSummary measure_cost(const p4sim::Program& program);

struct PassStats {
  std::string pass;
  std::size_t rewrites = 0;
};

/// Evidence-tier tally of the per-pass translation validation.
struct ValidationStats {
  std::size_t checked = 0;  ///< (pass, program) pairs validated
  std::size_t proved = 0;   ///< closed by canonicalization alone
  std::size_t sampled = 0;  ///< needed the randomized-valuation fallback
  std::size_t refuted = 0;  ///< disproven (rewrite reverted, S4-TV error)
  std::size_t budget = 0;   ///< DAG budget exhausted, nothing proven
  std::size_t packs = 0;    ///< stage-pack merges validated
};

struct OptimizeResult {
  DiagnosticEngine diags;              ///< S4-OPT/S4-TV diagnostics, sorted
  std::vector<PassStats> pass_stats;   ///< canonical order, enabled passes
  CostSummary before;
  CostSummary after;
  ValidationStats validation;          ///< zeros when validation is off
  std::size_t iterations = 0;
  bool fixpoint = false;

  [[nodiscard]] std::size_t total_rewrites() const noexcept;
  [[nodiscard]] bool changed() const noexcept { return total_rewrites() != 0; }
};

/// Optimizes every action of the switch in place (plus the pipeline, when
/// stage packing is enabled).  The switch keeps working mid-stream: rewrites
/// go through P4Switch::replace_action / set_pipeline, which invalidate the
/// compiled fast path.
OptimizeResult optimize_switch(p4sim::P4Switch& sw,
                               const PassManagerOptions& options = {});

/// Optimizes one standalone program (context: all temps zero on entry,
/// nothing live out — the contract of a program that fills a whole stage).
OptimizeResult optimize_program(p4sim::Program& program,
                                const PassManagerOptions& options = {});

/// Same, with the register declarations the program runs against — enables
/// width/bounds-aware rewrites (CSE store-to-load forwarding) and gives
/// validation the exact register model.
OptimizeResult optimize_program(p4sim::Program& program,
                                const p4sim::RegisterFile& registers,
                                const PassManagerOptions& options = {});

/// Renders `{"instructions":{"before":N,"after":M},...}` for the cost pair —
/// the schema stat4_opt --json and stat4_lint --json share.
void render_cost_json(std::ostream& os, const CostSummary& before,
                      const CostSummary& after);

}  // namespace analysis
