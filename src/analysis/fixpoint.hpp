// The fixpoint engine shared by the abstract interpreters.
//
// The overflow pass (overflow.cpp: one ideal-value interval per cell) and
// the precision pass (precision.cpp: an interval plus a proven error bound)
// differ only in their value domain and transfer function.  This header
// holds everything else:
//
//   * the state: one abstract value per register array, index-insensitive,
//     and the packet fields at pipeline entry, seeded from the field table
//     (`analysis_bits`) and AnalysisOptions (`timestamp_bound_ns`,
//     `field_bounds`);
//   * the step: one abstract packet applies every alternative of every
//     stage from the stage's incoming state and joins the results.
//     Skipping a stage is one more alternative, so the state only grows;
//   * the driver, which takes the step from the empty state toward the
//     observation budget N (`max_observations`):
//       1. warm-up: up to kWarmupIterations exact steps.  A step that
//          changes nothing is a FIXPOINT: the bounds hold for any N.
//       2. acceleration: when each tracked history of every register grew
//          over the last kAccelWindow steps with a constant non-negative
//          second difference -- the shape of Xsum (linear) and Xsumsq
//          (quadratic) accumulators -- each jumps closed-form to N (the
//          degree<=2 polynomial bounds any further growth with those
//          differences; saturating U128 arithmetic caps at kInf), and up to
//          4 settle steps carry the jump into derived registers.
//       3. otherwise: exact steps up to kMaxExactIterations, then one probe
//          step.  Every register the probe still moves is widened, its
//          bound assumed rather than proven, and 2 settle steps follow.
//     Acceleration applies to every register or to none: one irregular
//     history sends all of them down path 3, the linear ones included.
//
// A Domain policy parameterises the engine:
//
//   using Value;                        // join(Value, Value) and == exist;
//                                       // Value{Interval} seeds a field
//   static constexpr std::size_t kTracked;  // histories per register
//   static std::array<U128, kTracked> tracked(const Value&);
//   static void jump(Value&, const std::array<PolyFit, kTracked>&,
//                    U128 steps);       // apply the fits over `steps`
//   static void widen(Value& probed, const Value& before,
//                     unsigned width_bits);  // `before`: pre-probe value
//   void transfer(const StageAlternative&, std::vector<Value>& regs,
//                 FieldValues<Value>& fields);
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "analysis/interval.hpp"
#include "analysis/overflow.hpp"
#include "analysis/verifier.hpp"

namespace analysis {

/// Growth samples kept per tracked history.
inline constexpr std::size_t kAccelWindow = 8;
/// Exact steps before acceleration is tried.
inline constexpr std::uint64_t kWarmupIterations = 128;
/// Exact steps before irregular growth is widened.
inline constexpr std::uint64_t kMaxExactIterations = 4096;
static_assert(kWarmupIterations >= kAccelWindow,
              "the growth window fills during warm-up");

using AccelHistory = std::array<U128, kAccelWindow>;

/// Degree<=2 growth of a history: the latest first difference and the
/// constant second difference.  The zero fit leaves a flat history as is.
struct PolyFit {
  U128 d1 = 0;
  U128 d2 = 0;
};

/// Shifts the window left and appends the newest sample.
inline void accel_push(AccelHistory& h, U128 sample) {
  for (std::size_t i = 0; i + 1 < kAccelWindow; ++i) h[i] = h[i + 1];
  h[kAccelWindow - 1] = sample;
}

/// Fits a monotone window: true when its second difference is a
/// non-negative constant.
inline bool poly_fit(const AccelHistory& h, PolyFit* fit) {
  std::array<U128, kAccelWindow - 1> diff1{};
  for (std::size_t i = 0; i + 1 < kAccelWindow; ++i) {
    if (h[i + 1] < h[i]) return false;  // not monotone
    diff1[i] = h[i + 1] - h[i];
  }
  for (std::size_t i = 0; i + 2 < kAccelWindow; ++i) {
    if (diff1[i + 1] < diff1[i]) return false;  // concave: do not extrapolate
    if (diff1[i + 1] - diff1[i] != diff1[1] - diff1[0]) return false;
  }
  fit->d1 = diff1[kAccelWindow - 2];
  fit->d2 = diff1[1] - diff1[0];
  return true;
}

/// Closed-form jump of r further steps: h + d1*r + d2*r*(r+1)/2.
inline U128 poly_jump(U128 h, const PolyFit& fit, U128 r) {
  U128 out = sat_add(h, sat_mul(fit.d1, r));
  const U128 tri = sat_mul(r, sat_add(r, 1)) / 2;
  return sat_add(out, sat_mul(fit.d2, tri));
}

template <class V>
using FieldValues = std::array<V, p4sim::kFieldCount>;

/// Where the driver left the state, and how it got there.
template <class V>
struct FixpointRun {
  std::vector<V> regs;  ///< one value per register array
  /// Packets the state covers: N, unless a fixpoint came first.
  std::uint64_t observations = 0;
  std::size_t steps = 0;  ///< abstract packets executed
  bool fixpoint = false;
  bool extrapolated = false;
  /// Per register: widened on path 3, so its bound is assumed.
  std::vector<bool> widened;
};

template <class Domain>
class FixpointEngine {
 public:
  using Value = typename Domain::Value;
  using Regs = std::vector<Value>;
  using Fields = FieldValues<Value>;

  FixpointEngine(const AbstractPipeline& pipe, const AnalysisOptions& options,
                 Domain& domain)
      : pipe_(pipe),
        domain_(domain),
        budget_(std::max<std::uint64_t>(1, options.max_observations)) {
    for (std::size_t i = 0; i < entry_fields_.size(); ++i) {
      const auto f = static_cast<p4sim::FieldRef>(i);
      entry_fields_[i] =
          Value{f == p4sim::FieldRef::kMetaIngressTs
                    ? Interval{0, options.timestamp_bound_ns}
                    : Interval::width(p4sim::field_info(f).analysis_bits)};
    }
    for (const auto& [field, hi] : options.field_bounds) {
      entry_fields_[static_cast<std::size_t>(field)] = Value{Interval{0, hi}};
    }
  }

  /// One abstract packet from `regs`.  `fields_out`, when given, receives
  /// the field values at the end of the pipeline.
  Regs step(const Regs& regs, Fields* fields_out = nullptr) {
    Regs cur = regs;
    Fields fields = entry_fields_;
    for (const auto& stage : pipe_.stages) {
      Regs merged = cur;  // the stage skipped
      Fields fmerged = fields;
      for (const StageAlternative& alt : stage) {
        Regs t = cur;
        Fields ft = fields;
        domain_.transfer(alt, t, ft);
        join_into(merged, t);
        join_into(fmerged, ft);
      }
      cur = std::move(merged);
      fields = fmerged;
    }
    if (fields_out != nullptr) *fields_out = fields;
    return cur;  // already joined with `regs`: every stage may be skipped
  }

  /// Drives step() from the empty state toward the observation budget.
  FixpointRun<Value> run() {
    const std::size_t arrays = pipe_.registers->array_count();
    FixpointRun<Value> out;
    out.regs.assign(arrays, Value{});
    out.widened.assign(arrays, false);
    Regs& s = out.regs;
    std::vector<std::array<AccelHistory, Domain::kTracked>> hist(arrays);

    const auto exact_steps = [&](std::uint64_t until) {
      while (out.observations < until) {
        Regs next = step(s);
        ++out.observations;
        ++out.steps;
        for (std::size_t r = 0; r < arrays; ++r) {
          const auto samples = Domain::tracked(next[r]);
          for (std::size_t k = 0; k < Domain::kTracked; ++k) {
            accel_push(hist[r][k], samples[k]);
          }
        }
        if (next == s) {
          out.fixpoint = true;
          return;
        }
        s = std::move(next);
      }
    };

    exact_steps(std::min(budget_, kWarmupIterations));
    if (out.fixpoint || out.observations == budget_) return out;

    std::vector<std::array<PolyFit, Domain::kTracked>> fits(arrays);
    bool all_poly = true;
    for (std::size_t r = 0; r < arrays && all_poly; ++r) {
      for (std::size_t k = 0; k < Domain::kTracked && all_poly; ++k) {
        const AccelHistory& h = hist[r][k];
        if (h.back() != h.front()) all_poly = poly_fit(h, &fits[r][k]);
      }
    }
    if (all_poly) {
      for (std::size_t r = 0; r < arrays; ++r) {
        Domain::jump(s[r], fits[r], budget_ - out.observations);
      }
      out.observations = budget_;
      out.extrapolated = true;
      for (int settle = 0; settle < 4 && !out.fixpoint; ++settle) {
        Regs next = step(s);
        ++out.steps;
        if (next == s) out.fixpoint = true;
        s = std::move(next);
      }
      return out;
    }

    exact_steps(std::min(budget_, kMaxExactIterations));
    if (out.fixpoint || out.observations == budget_) return out;
    Regs probe = step(s);
    ++out.steps;
    for (std::size_t r = 0; r < arrays; ++r) {
      if (probe[r] == s[r]) continue;
      out.widened[r] = true;
      Domain::widen(probe[r], s[r],
                    pipe_.registers->info(static_cast<p4sim::RegisterId>(r))
                        .width_bits);
    }
    s = std::move(probe);
    out.observations = budget_;
    for (int settle = 0; settle < 2; ++settle) {
      s = step(s);
      ++out.steps;
    }
    return out;
  }

 private:
  template <class C>
  static void join_into(C& into, const C& from) {
    for (std::size_t i = 0; i < into.size(); ++i) {
      into[i] = join(into[i], from[i]);
    }
  }

  const AbstractPipeline& pipe_;
  Domain& domain_;
  std::uint64_t budget_;
  Fields entry_fields_{};
};

}  // namespace analysis
