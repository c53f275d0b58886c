// Overflow / value-range pass: interval domain properties, seeded
// width-violation fixtures, and the paper's N*Xsumsq product hazard on the
// shipped echo application (Section 2.2: the identity var(NX) = N*Xsumsq -
// Xsum^2 cubes the observation bound, so 64-bit registers cap N near 2^21).
#include <gtest/gtest.h>

#include <sstream>

#include "analysis/analysis.hpp"
#include "p4sim/p4sim.hpp"

namespace {

using analysis::AnalysisOptions;
using analysis::AnalysisResult;
using analysis::Interval;
using analysis::kMax64;
using analysis::Severity;
using analysis::U128;
using p4sim::FieldRef;
using p4sim::Program;
using p4sim::ProgramBuilder;
using p4sim::RegisterFile;

bool has_rule(const AnalysisResult& r, const std::string& rule) {
  for (const auto& d : r.diags.diagnostics()) {
    if (d.rule == rule) return true;
  }
  return false;
}

// ---- interval domain --------------------------------------------------------

TEST(IntervalDomain, AddSetsOverflowFlagPast64Bits) {
  bool ovf = false;
  const Interval r = analysis::iv_add(Interval{0, kMax64 - 1},
                                      Interval{2, 2}, &ovf);
  EXPECT_TRUE(ovf);
  EXPECT_GT(r.hi, kMax64);
}

TEST(IntervalDomain, AddWithinRangeDoesNotFlag) {
  bool ovf = false;
  const Interval r =
      analysis::iv_add(Interval{1, 10}, Interval{2, 20}, &ovf);
  EXPECT_FALSE(ovf);
  EXPECT_EQ(r.lo, U128{3});
  EXPECT_EQ(r.hi, U128{30});
}

TEST(IntervalDomain, SubUnprovableGoesTop64) {
  bool wrap = false;
  const Interval r =
      analysis::iv_sub(Interval{0, 100}, Interval{0, 5}, &wrap);
  EXPECT_TRUE(wrap);
  EXPECT_TRUE(r.is_top64());
}

TEST(IntervalDomain, SubProvableStaysExact) {
  bool wrap = false;
  const Interval r =
      analysis::iv_sub(Interval{50, 100}, Interval{0, 5}, &wrap);
  EXPECT_FALSE(wrap);
  EXPECT_EQ(r.lo, U128{45});
  EXPECT_EQ(r.hi, U128{100});
}

TEST(IntervalDomain, Top64IsModularNotOverflow) {
  // Arithmetic on an already-wrapped word must not report a fresh overflow:
  // the word follows modular semantics.
  bool ovf = false;
  const Interval r = analysis::iv_mul(Interval::top64(),
                                      Interval{2, 1000}, &ovf);
  EXPECT_FALSE(ovf);
  EXPECT_TRUE(r.is_top64());
}

TEST(IntervalDomain, MulByProvableZeroOrOneIsExact) {
  bool ovf = false;
  EXPECT_EQ(analysis::iv_mul(Interval::top64(), Interval{0, 0}, &ovf).hi,
            U128{0});
  const Interval one = analysis::iv_mul(Interval{7, 9}, Interval{1, 1}, &ovf);
  EXPECT_EQ(one.lo, U128{7});
  EXPECT_EQ(one.hi, U128{9});
  EXPECT_FALSE(ovf);
}

TEST(IntervalDomain, ShiftAmountMaskedLikeExecutor) {
  bool ovf = false;
  // A shift amount interval reaching past 63 is clamped to [0, 63], exactly
  // the executor's `& 63`.
  const Interval r =
      analysis::iv_shl(Interval{1, 1}, Interval{0, 200}, &ovf);
  EXPECT_EQ(r.lo, U128{1});
  EXPECT_EQ(r.hi, U128{1} << 63);
}

TEST(IntervalDomain, AndBoundsByMinimum) {
  const Interval r = analysis::iv_and(Interval{0, kMax64}, Interval{0, 255});
  EXPECT_EQ(r.hi, U128{255});
}

TEST(IntervalDomain, FitsChecksDeclaredWidth) {
  EXPECT_TRUE((Interval{0, 255}.fits(8)));
  EXPECT_FALSE((Interval{0, 256}.fits(8)));
  EXPECT_TRUE((Interval{0, kMax64}.fits(64)));
  EXPECT_FALSE((Interval{0, kMax64 + 1}.fits(64)));
}

// ---- seeded violation fixtures ---------------------------------------------

Program constant_trunc_program() {
  ProgramBuilder b("fixture_trunc");
  const auto idx = b.konst(0);
  const auto v = b.konst(300);
  b.store_reg(0, idx, v);
  return b.take();
}

TEST(OverflowPass, ConstantRegisterTruncationIsRefutedWithWitness) {
  RegisterFile regs;
  regs.declare("acc8", 1, 8);
  const AnalysisResult r =
      analysis::verify_program(constant_trunc_program(), regs, {});
  ASSERT_TRUE(has_rule(r, "S4-OVF-001"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.fixpoint);  // constant store: proven for any packet count
  ASSERT_EQ(r.register_bounds.size(), 1u);
  EXPECT_TRUE(r.register_bounds[0].exceeds_width);
  EXPECT_EQ(r.register_bounds[0].hi, 300u);
}

TEST(OverflowPass, GoldenTextDiagnostic) {
  RegisterFile regs;
  regs.declare("acc8", 1, 8);
  const AnalysisResult r =
      analysis::verify_program(constant_trunc_program(), regs, {});
  std::ostringstream os;
  r.diags.render_text(os);
  EXPECT_EQ(os.str(),
            "fixture_trunc:2: error: value range [300, 300] cannot fit "
            "register 'acc8' (8 bits) (holds for any packet count) "
            "[S4-OVF-001: acc8]\n"
            "1 error(s), 0 warning(s), 0 note(s)\n");
}

TEST(OverflowPass, GoldenJsonDiagnostic) {
  RegisterFile regs;
  regs.declare("acc8", 1, 8);
  const AnalysisResult r =
      analysis::verify_program(constant_trunc_program(), regs, {});
  std::ostringstream os;
  r.diags.render_json(os);
  EXPECT_EQ(os.str(),
            "{\"diagnostics\":[{\"rule\":\"S4-OVF-001\",\"severity\":"
            "\"error\",\"message\":\"value range [300, 300] cannot fit "
            "register 'acc8' (8 bits) (holds for any packet count)\","
            "\"program\":\"fixture_trunc\",\"instruction\":2,\"object\":"
            "\"acc8\"}],\"counts\":{\"error\":1,\"warning\":0,\"note\":0}}");
}

TEST(OverflowPass, LinearAccumulatorOverflowsNarrowRegister) {
  // A 48-bit register accumulating a 32-bit field each packet holds about
  // 2^16 packets; at the default 2^20 observations the bound is refuted via
  // polynomial extrapolation of the linear growth.
  RegisterFile regs;
  regs.declare("acc48", 1, 48);
  ProgramBuilder b("fixture_linear");
  const auto idx = b.konst(0);
  const auto v = b.load_field(FieldRef::kIpv4Src);
  const auto cur = b.load_reg(0, idx);
  const auto sum = b.add(cur, v);
  b.store_reg(0, idx, sum);
  const AnalysisResult r = analysis::verify_program(b.take(), regs, {});
  EXPECT_TRUE(has_rule(r, "S4-OVF-001"));
  EXPECT_TRUE(r.extrapolated);
  EXPECT_FALSE(r.fixpoint);
  ASSERT_EQ(r.register_bounds.size(), 1u);
  EXPECT_TRUE(r.register_bounds[0].exceeds_width);
}

TEST(OverflowPass, BoundedAccumulatorIsProvenClean) {
  // The same accumulator over a 1-byte field stays under 2^28 at 2^20
  // observations: no diagnostic, and the proven bound is tight-ish.
  RegisterFile regs;
  regs.declare("acc64", 1, 64);
  ProgramBuilder b("fixture_bounded");
  const auto idx = b.konst(0);
  const auto v = b.load_field(FieldRef::kIpv4Ttl);  // 8-bit field
  const auto cur = b.load_reg(0, idx);
  const auto sum = b.add(cur, v);
  b.store_reg(0, idx, sum);
  const AnalysisResult r = analysis::verify_program(b.take(), regs, {});
  EXPECT_TRUE(r.ok());
  ASSERT_EQ(r.register_bounds.size(), 1u);
  EXPECT_FALSE(r.register_bounds[0].exceeds_width);
  // <= N * 255 plus the settle-step slack.
  EXPECT_LE(r.register_bounds[0].hi, (std::uint64_t{1} << 28));
}

TEST(OverflowPass, WordOverflowProductIsFlagged) {
  RegisterFile regs;
  regs.declare("wide", 1, 64);
  ProgramBuilder b("fixture_product");
  const auto idx = b.konst(0);
  const auto v = b.load_field(FieldRef::kIpv4Src);  // up to 2^32-1
  const auto k = b.konst(std::uint64_t{1} << 40);
  const auto prod = b.mul(v, k);  // up to ~2^72: wraps the 64-bit word
  b.store_reg(0, idx, prod);
  const AnalysisResult r = analysis::verify_program(b.take(), regs, {});
  EXPECT_TRUE(has_rule(r, "S4-OVF-003"));
  EXPECT_FALSE(r.ok());
}

TEST(OverflowPass, FieldTruncationIsFlagged) {
  RegisterFile regs;
  ProgramBuilder b("fixture_field");
  const auto v = b.load_field(FieldRef::kIpv4Src);   // 32-bit value
  b.store_field(FieldRef::kTcpSrcPort, v);           // 16-bit field
  const AnalysisResult r = analysis::verify_program(b.take(), regs, {});
  EXPECT_TRUE(has_rule(r, "S4-OVF-002"));
}

TEST(OverflowPass, UnprovableSubtractionIsANoteNotAnError) {
  RegisterFile regs;
  regs.declare("acc", 1, 64);
  ProgramBuilder b("fixture_sub");
  const auto idx = b.konst(0);
  const auto a = b.load_field(FieldRef::kIpv4Ttl);
  const auto c = b.load_field(FieldRef::kIpv4Proto);
  const auto diff = b.sub(a, c);  // [0,255] - [0,255]: unprovable
  b.store_reg(0, idx, diff);
  const AnalysisResult r = analysis::verify_program(b.take(), regs, {});
  EXPECT_TRUE(has_rule(r, "S4-OVF-004"));
  EXPECT_TRUE(r.ok()) << "a wrap note must not fail the lint gate";
}

// ---- fixpoint engine exits --------------------------------------------------

TEST(OverflowEngine, ConstantStoreStopsAtFixpoint) {
  RegisterFile regs;
  regs.declare("acc8", 1, 8);
  const AnalysisResult r =
      analysis::verify_program(constant_trunc_program(), regs, {});
  EXPECT_TRUE(r.fixpoint);
  EXPECT_FALSE(r.extrapolated);
  // Step 1 stores 300; step 2 changes nothing.
  EXPECT_EQ(r.iterations, 2u);
}

TEST(OverflowEngine, BudgetBelowWarmupRunsExactly) {
  AnalysisOptions options;
  options.max_observations = 100;
  const auto sw = analysis::build_example("echo");
  const AnalysisResult r = analysis::verify_switch(*sw, options);
  EXPECT_EQ(r.iterations, 100u);
  EXPECT_FALSE(r.fixpoint);
  EXPECT_FALSE(r.extrapolated);
}

/// a += 1; b += a >> 3.  `a` grows linearly, but `b` grows by a staircase
/// (its first difference steps up every 8 packets), which no degree<=2
/// polynomial fits: the engine iterates exactly to its cap and widens.
Program irregular_growth_program() {
  ProgramBuilder b("fixture_irregular");
  const auto idx = b.konst(0);
  const auto a = b.add(b.load_reg(0, idx), b.konst(1));
  b.store_reg(0, idx, a);
  const auto step = b.shr(a, b.konst(3));
  b.store_reg(1, idx, b.add(b.load_reg(1, idx), step));
  return b.take();
}

TEST(OverflowEngine, IrregularGrowthIsWidenedAndReported) {
  RegisterFile regs;
  regs.declare("a", 1, 64);
  regs.declare("b", 1, 64);
  const AnalysisResult r =
      analysis::verify_program(irregular_growth_program(), regs, {});
  std::ostringstream os;
  r.diags.render_text(os);
  // Acceleration applies to every register or to none, so the linear `a` is
  // widened along with `b`.
  EXPECT_EQ(os.str(),
            "fixture_irregular: warning: register 'a' growth did not "
            "stabilize within 4096 exact iterations and is not "
            "polynomial; its bound at 1048576 observations is assumed, not "
            "proven [S4-OVF-005: a]\n"
            "fixture_irregular: warning: register 'b' growth did not "
            "stabilize within 4096 exact iterations and is not "
            "polynomial; its bound at 1048576 observations is assumed, not "
            "proven [S4-OVF-005: b]\n"
            "0 error(s), 2 warning(s), 0 note(s)\n");
  ASSERT_EQ(r.register_bounds.size(), 2u);
  EXPECT_EQ(r.register_bounds[0].hi, ~std::uint64_t{0});
  EXPECT_EQ(r.register_bounds[1].hi, ~std::uint64_t{0});
  EXPECT_FALSE(r.register_bounds[0].exceeds_width);
  EXPECT_FALSE(r.register_bounds[1].exceeds_width);
  // `iterations` counts observations covered: the widened state stands for
  // the whole budget.
  EXPECT_EQ(r.iterations, std::uint64_t{1} << 20);
  EXPECT_FALSE(r.fixpoint);
  EXPECT_FALSE(r.extrapolated);
}

// ---- the shipped echo application ------------------------------------------

TEST(OverflowPass, EchoAppCleanAtDefaultObservationBudget) {
  const auto sw = analysis::build_example("echo");
  const AnalysisResult r = analysis::verify_switch(*sw, {});
  EXPECT_TRUE(r.ok());
  for (const auto& rb : r.register_bounds) {
    EXPECT_FALSE(rb.exceeds_width) << rb.name;
  }
}

TEST(OverflowPass, EchoAppVarianceProductOverflowsAtLargeN) {
  // The paper's Section 2.2 hazard: n * xsumsq at N = 2^24 observations of
  // 9-bit values reaches ~2^72 and silently wraps the 64-bit word.
  AnalysisOptions options;
  options.max_observations = std::uint64_t{1} << 24;
  const auto sw = analysis::build_example("echo");
  const AnalysisResult r = analysis::verify_switch(*sw, options);
  EXPECT_TRUE(has_rule(r, "S4-OVF-003"));
  EXPECT_FALSE(r.ok());
}

}  // namespace
