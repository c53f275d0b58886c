// Translation validation for the optimizer passes.
//
// Instead of trusting a pass, every rewrite it performs is re-proven after
// the fact: the program before and the program after are symbolically
// executed against the SAME hash-consed DAG (symbolic.hpp), and every
// observable — live-out temps, every packet field, the per-register store
// sequences, and the emitted digest stream — must be equivalent.
//
// Two tiers of evidence:
//   kProved   — every observable pair normalized to the identical node id.
//               This is a proof over ALL inputs (the constructors only merge
//               computations equal under every valuation).
//   kSampled  — some pair did not canonicalize together; N seeded concrete
//               valuations of the residual DAG pair all agreed.  Strong
//               evidence, not proof — strict mode treats it as a failure.
// and two failure modes:
//   kRefuted  — a concrete valuation distinguishes the programs; the
//               counterexample is minimized (values zeroed, bits cleared,
//               while the disagreement persists) and attached.
//   kBudget   — the DAG outgrew the node budget before obligations could be
//               collected; nothing was checked.
//
// validate_pack proves stage packing: run(first);run(second) against the
// packed program.  validate_commute additionally proves the packed pair
// order-independent — only applicable when the two stages share no state
// (disjoint registers, fields, and temp flow); it reports kInapplicable
// otherwise, which callers treat as "no claim", not failure, since
// concatenation equivalence from validate_pack already carries correctness.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "analysis/symbolic.hpp"

namespace analysis {

enum class ValidationMethod : std::uint8_t {
  kProved,        ///< all observables canonicalized to identical nodes
  kSampled,       ///< residual pairs agreed under N seeded valuations
  kRefuted,       ///< concrete counterexample found
  kBudget,        ///< DAG node budget exhausted before checking
  kInapplicable,  ///< (commute only) stages share state; no claim made
};

[[nodiscard]] const char* to_string(ValidationMethod m) noexcept;

/// A concrete input on which the two programs disagree.
struct Counterexample {
  std::uint64_t seed = 0;       ///< valuation seed that exposed it
  std::string observable;       ///< which output differs ("ipv4.ttl", ...)
  sym::Word before_value = 0;
  sym::Word after_value = 0;
  std::string bindings;         ///< minimized "var = value" assignment list

  /// One-line diagnostic rendering.
  [[nodiscard]] std::string render() const;
};

struct ValidationOutcome {
  ValidationMethod method = ValidationMethod::kProved;
  std::size_t obligations = 0;  ///< observable pairs compared
  std::size_t residual = 0;     ///< pairs that needed sampling
  std::size_t dag_nodes = 0;    ///< DAG size (proof-effort metric)
  std::optional<Counterexample> counterexample;

  /// True when the programs were shown equivalent (proof or sampling).
  [[nodiscard]] bool equivalent() const noexcept {
    return method == ValidationMethod::kProved ||
           method == ValidationMethod::kSampled;
  }
};

struct ValidateOptions {
  /// Register declarations (exact width/bounds model); nullptr falls back
  /// to an unbounded width-64 model, still sound for structural proofs.
  const p4sim::RegisterFile* registers = nullptr;
  /// Temps an earlier stage may have written (free on entry, not zero).
  TempSet dirty_on_entry;
  /// Temps a later stage may read — compared as observables.
  TempSet live_out;
  /// DAG node budget; exceeding it yields kBudget (nothing proven).
  std::size_t max_dag_nodes = std::size_t{1} << 20;
};

/// Proves `after` observationally equivalent to `before` under the given
/// pipeline context (the per-pass post-condition).
[[nodiscard]] ValidationOutcome validate_rewrite(const p4sim::Program& before,
                                                 const p4sim::Program& after,
                                                 const ValidateOptions& opts);

/// Proves the packed stage equivalent to running `first` then `second`
/// (dirty_on_entry = first stage's entry state, live_out = second's exit).
[[nodiscard]] ValidationOutcome validate_pack(const p4sim::Program& first,
                                              const p4sim::Program& second,
                                              const p4sim::Program& packed,
                                              const ValidateOptions& opts);

/// Proves first;second == second;first for state-disjoint stages (register,
/// field, and temp-flow independence is checked first; kInapplicable when
/// the stages share state — no claim, not a failure).
[[nodiscard]] ValidationOutcome validate_commute(const p4sim::Program& first,
                                                 const p4sim::Program& second,
                                                 const ValidateOptions& opts);

}  // namespace analysis
