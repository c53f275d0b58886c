// Interval / value-range propagation over p4sim action programs.
//
// The abstract state is one interval per register array.  The shared
// fixpoint engine (fixpoint.hpp) steps the pipeline one abstract packet at a
// time: a FIXPOINT proves the bounds for ANY number of packets, polynomial
// acceleration of the interval highs jumps Xsum/Xsumsq-shaped growth to
// `max_observations`, and irregular growth widens the register to its
// declared width, which S4-OVF-005 reports as a proof gap.
//
// Diagnostics are emitted in one final reporting step over the
// post-iteration state, so every witness range reflects the configured
// observation count.  Bounds are 128-bit ideal values (interval.hpp): a
// 64-bit wrap or a store wider than the declared register/field width is
// exactly the class of silent corruption the paper's N-scaled variance
// identity risks (Section 2.2), and what S4-OVF-001/002/003 refute with a
// concrete witness.
#pragma once

#include <string>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "analysis/interval.hpp"
#include "analysis/verifier.hpp"
#include "p4sim/action.hpp"
#include "p4sim/register_file.hpp"

namespace analysis {

/// One alternative of a pipeline stage: a program plus the joined value
/// bounds of its action data (over every installed entry that dispatches to
/// it, or the fixture-supplied bounds).
struct StageAlternative {
  const p4sim::Program* program = nullptr;
  std::vector<Interval> params;
};

/// The abstract pipeline: ordered stages, each with its possible programs
/// (every stage is also skippable — guards and table misses need no
/// modelling beyond that).
struct AbstractPipeline {
  std::string name;  ///< program/switch label for diagnostics
  std::vector<std::vector<StageAlternative>> stages;
  const p4sim::RegisterFile* registers = nullptr;
};

/// Runs the pass; fills result.register_bounds / iterations / fixpoint /
/// extrapolated and reports S4-OVF-* diagnostics into result.diags.
void run_overflow_pass(const AbstractPipeline& pipeline,
                       const AnalysisOptions& options, AnalysisResult& result);

}  // namespace analysis
