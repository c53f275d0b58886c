// Error-bound abstract interpretation: how WRONG can an output be?
//
// The overflow pass (overflow.hpp) proves values FIT; this pass proves they
// are CLOSE to the computation the program approximates.  Every abstract
// value carries, next to its implemented-value interval, a proven bound on
// the distance between the implemented integer and the *ideal* real-valued
// computation — the same instruction sequence with exact arithmetic on the
// data path (shr as true division, approx-helper spans as their real
// functions) while control flow, table/register indexing, hashing and
// masking follow the implementation ("mixed semantics", the standard way to
// give a floating-point-style error meaning to an integer kernel).
//
// The error metric is the distance on the ring R/2^64*Z (and R/2^w*Z at
// every width-w register/field store): wrapping adds and subs translate the
// ring, so exact integer chains keep error ZERO across wraps — modular
// arithmetic is its own spec, not an approximation.  Consequences:
//
//   * every bound is finite: half the ring (2^63, `kErrTop` in Q32) is the
//     vacuous worst case, and a vacuous OUTPUT bound is what S4-PREC-001
//     reports;
//   * subtraction never poisons (window expiry, variance identities);
//   * truncating shifts add at most one unit (shr approximates division);
//   * the approx sqrt/square/mul/log2 expansions contribute exactly their
//     builder-declared contracts (p4sim::ApproxSpan) plus a Lipschitz term
//     for any error already present on their inputs.
//
// Error bounds are Q32 fixed point (32 fractional bits) in saturating U128
// arithmetic, so sub-unit contributions (truncation terms, declared
// fractional error) accumulate without rounding to zero or overflowing.
//
// The fixpoint engine is the overflow pass's (fixpoint.hpp).  It tracks both
// the value and the error history of each register, and widening sets an
// error the probe step still moved to the vacuous half-ring (S4-PREC-002).
//
// Every bound this pass proves is empirically falsifiable: the
// precision_differential_test replays random streams against a long-double
// oracle implementing the mixed semantics and asserts measured <= proven.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "analysis/interval.hpp"
#include "analysis/overflow.hpp"
#include "analysis/verifier.hpp"
#include "p4sim/switch.hpp"
#include "sketch/sizing.hpp"

namespace analysis {

/// Fractional bits of the Q32 error fixed point.
inline constexpr unsigned kErrFracBits = 32;
/// One value unit of error, in Q32.
inline constexpr U128 kErrOne = static_cast<U128>(1) << kErrFracBits;
/// Half the 2^64 ring in Q32: the vacuous "no information" error bound.
/// Sound for ANY value (ring distance cannot exceed half the ring), so the
/// domain needs no poison element — only this finite top.
inline constexpr U128 kErrTop = static_cast<U128>(1)
                                << (63 + kErrFracBits);

/// Half the 2^w ring in Q32 — the vacuous bound for a width-w cell.
[[nodiscard]] constexpr U128 err_ring_half(unsigned width_bits) noexcept {
  const unsigned w = width_bits >= 64 ? 64 : width_bits;
  return w == 0 ? 0 : static_cast<U128>(1) << (w - 1 + kErrFracBits);
}

/// Pass-specific knobs.  `unsound_drop_shr_truncation` deliberately breaks
/// the kShr transfer function (drops the truncation term) so the
/// differential harness can prove it catches unsound bounds; never set it
/// outside tests.
struct PrecisionOptions {
  bool unsound_drop_shr_truncation = false;
};

/// Proven error bound for one output cell (register array, index-joined,
/// or packet field at end of pipeline).
struct ErrorBound {
  std::string name;
  unsigned width_bits = 64;
  std::uint64_t value_hi = 0;  ///< implemented-value upper bound (clamped)
  U128 err_q32 = 0;            ///< proven max |impl - ideal|, Q32
  bool vacuous = false;        ///< err_q32 >= half the width-w ring
  bool assumed = false;        ///< widened, not proven (S4-PREC-002)

  /// Error in value units, rounded up.
  [[nodiscard]] std::uint64_t err_units() const noexcept {
    const U128 u = (err_q32 + kErrOne - 1) >> kErrFracBits;
    return clamp_u64(u);
  }
  /// Relative error vs the proven value bound (0 when the cell is 0).
  [[nodiscard]] double relative() const noexcept;
};

struct PrecisionResult {
  DiagnosticEngine diags;
  std::vector<ErrorBound> register_bounds;  ///< one per register array
  std::vector<ErrorBound> field_bounds;     ///< fields the pipeline writes
  /// Abstract packets executed: exact, settle and probe steps plus the
  /// final step that captures the fields.  Unlike AnalysisResult's count,
  /// an accelerated jump adds nothing.
  std::size_t iterations = 0;
  bool fixpoint = false;
  bool extrapolated = false;
  [[nodiscard]] bool ok() const noexcept { return !diags.has_errors(); }
};

/// Runs the pass over an abstract pipeline (fixture entry point).
[[nodiscard]] PrecisionResult run_precision_pass(
    const AbstractPipeline& pipeline, const AnalysisOptions& options,
    const PrecisionOptions& popts = {});

/// Analyzes a fully configured switch (build_pipeline_model + pass).
[[nodiscard]] PrecisionResult analyze_precision(
    const p4sim::P4Switch& sw, const AnalysisOptions& options,
    const PrecisionOptions& popts = {});

/// Runs the sketch auto-sizer for one app's observation budget and reports
/// the outcome through the diagnostic engine: S4-PREC-006 (note) with the
/// recommended count-min/count-sketch geometry when the eps-delta target is
/// achievable, S4-PREC-005 (error) when it is not.
sketch::SketchSizing report_sketch_sizing(double eps, double delta,
                                          std::uint64_t observations,
                                          const std::string& app,
                                          DiagnosticEngine& diags);

/// Renders a Q32 error bound as a decimal string with two fractional
/// digits ("1.25", "0.00"), exact for the integer part (128-bit safe).
[[nodiscard]] std::string err_q32_str(U128 err_q32);

/// Renders a Q32 error bound as a full-precision decimal integer string of
/// the raw Q32 value (for JSON interchange; Python reads it arbitrary-
/// precision).
[[nodiscard]] std::string err_q32_raw_str(U128 err_q32);

}  // namespace analysis
