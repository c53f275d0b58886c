// Precision (error-bound) pass: transfer-function unit fixtures, approx-span
// contracts, the S4-PREC diagnostic family, sketch auto-sizing, and the
// catalog-wide acceptance property — every shipped app gets a finite,
// non-vacuous proven error bound for every register and written field.
#include <gtest/gtest.h>

#include <sstream>

#include "analysis/analysis.hpp"
#include "p4sim/p4sim.hpp"
#include "sketch/sizing.hpp"

namespace {

using analysis::AbstractPipeline;
using analysis::AnalysisOptions;
using analysis::ErrorBound;
using analysis::Interval;
using analysis::kErrOne;
using analysis::kErrTop;
using analysis::PrecisionOptions;
using analysis::PrecisionResult;
using analysis::Severity;
using analysis::StageAlternative;
using analysis::U128;
using p4sim::FieldRef;
using p4sim::Program;
using p4sim::ProgramBuilder;
using p4sim::RegisterFile;

bool has_rule(const PrecisionResult& r, const std::string& rule) {
  for (const auto& d : r.diags.diagnostics()) {
    if (d.rule == rule) return true;
  }
  return false;
}

const ErrorBound& reg_bound(const PrecisionResult& r, const std::string& n) {
  for (const ErrorBound& b : r.register_bounds) {
    if (b.name == n) return b;
  }
  throw std::runtime_error("no register bound named " + n);
}

/// Runs the pass over a single program with one register array.
PrecisionResult run_one(const Program& program, const RegisterFile& regs,
                        const AnalysisOptions& options,
                        const std::vector<Interval>& params = {},
                        const PrecisionOptions& popts = {}) {
  AbstractPipeline pipe;
  pipe.name = program.name;
  pipe.registers = &regs;
  pipe.stages.push_back({StageAlternative{&program, params}});
  return analysis::run_precision_pass(pipe, options, popts);
}

AnalysisOptions small_budget() {
  AnalysisOptions o;
  o.max_observations = 1000;
  return o;
}

// ---- exact integer chains ---------------------------------------------------

TEST(PrecisionTransfer, ExactChainStaysZeroAcrossWrap) {
  // Wrapping adds translate the 2^64 ring: modular arithmetic is its own
  // spec, so the error must stay 0 even after the value interval hits top.
  ProgramBuilder b("wrap_chain");
  const auto idx = b.konst(0);
  const auto big = b.konst(std::uint64_t{1} << 63);
  const auto acc = b.load_reg(0, idx);
  b.store_reg(0, idx, b.add(acc, big));
  RegisterFile regs;
  regs.declare("acc", 1, 64);
  const PrecisionResult r = run_one(b.take(), regs, small_budget());
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(reg_bound(r, "acc").err_q32, U128{0});
  EXPECT_FALSE(reg_bound(r, "acc").vacuous);
}

TEST(PrecisionTransfer, SubtractionNeverPoisons) {
  // Window expiry idiom: cur - start may wrap below zero for the interval
  // domain, but ring distance is preserved, so the error stays 0.
  ProgramBuilder b("sub_wrap");
  const auto idx = b.konst(0);
  const auto a = b.load_reg(0, idx);
  const auto c = b.konst(5);
  b.store_reg(0, idx, b.sub(a, c));
  RegisterFile regs;
  regs.declare("acc", 1, 64);
  const PrecisionResult r = run_one(b.take(), regs, small_budget());
  EXPECT_EQ(reg_bound(r, "acc").err_q32, U128{0});
}

// ---- truncating shifts ------------------------------------------------------

TEST(PrecisionTransfer, ShrTruncationAddsSubUnitTerm) {
  // v = field >> 4 vs the ideal field/16: the floor loses at most 15/16 of
  // a unit, and the Q32 domain represents that exactly.
  ProgramBuilder b("shr_trunc");
  const auto idx = b.konst(0);
  const auto v = b.shr(b.load_field(FieldRef::kIpv4Src), b.konst(4));
  b.store_reg(0, idx, v);
  RegisterFile regs;
  regs.declare("acc", 1, 64);
  const PrecisionResult r = run_one(b.take(), regs, small_budget());
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(reg_bound(r, "acc").err_q32, kErrOne - (kErrOne >> 4));
  EXPECT_EQ(reg_bound(r, "acc").err_units(), 1u);
  EXPECT_TRUE(has_rule(r, "S4-PREC-003"));
}

TEST(PrecisionTransfer, ShrProvenExactByPossibleBits) {
  // (field << 4) >> 4: the symbolic DAG proves the shifted-out bits are
  // zero, so the "division" is exact and no truncation term applies.
  ProgramBuilder b("shr_exact");
  const auto idx = b.konst(0);
  const auto v = b.shr(b.shl(b.load_field(FieldRef::kIpv4Src), b.konst(4)),
                       b.konst(4));
  b.store_reg(0, idx, v);
  RegisterFile regs;
  regs.declare("acc", 1, 64);
  const PrecisionResult r = run_one(b.take(), regs, small_budget());
  EXPECT_EQ(reg_bound(r, "acc").err_q32, U128{0});
}

TEST(PrecisionTransfer, UnsoundOptionDropsTruncationTerm) {
  // The deliberately-broken transfer function the differential harness uses
  // to prove it can catch an unsound analysis.
  ProgramBuilder b("shr_trunc");
  const auto idx = b.konst(0);
  const auto v = b.shr(b.load_field(FieldRef::kIpv4Src), b.konst(4));
  b.store_reg(0, idx, v);
  RegisterFile regs;
  regs.declare("acc", 1, 64);
  PrecisionOptions popts;
  popts.unsound_drop_shr_truncation = true;
  const PrecisionResult r =
      run_one(b.take(), regs, small_budget(), {}, popts);
  EXPECT_EQ(reg_bound(r, "acc").err_q32, U128{0});
}

// ---- bit-op re-anchoring ----------------------------------------------------

TEST(PrecisionTransfer, MaskReanchorsEvenWhenMaskIsJoinedParam) {
  // v = (field >> 3) & mask with a NON-constant mask interval [0, 255]
  // (several table entries joined): the mask wraps the deviation onto the
  // 2^8 ring, so the sub-unit truncation error survives unchanged instead
  // of widening to the vacuous top.
  ProgramBuilder b("mask_param");
  const auto idx = b.konst(0);
  const auto v =
      b.band(b.shr(b.load_field(FieldRef::kIpv4Src), b.konst(3)), b.param(0));
  b.store_reg(0, idx, v);
  RegisterFile regs;
  regs.declare("acc", 1, 64);
  const PrecisionResult r =
      run_one(b.take(), regs, small_budget(), {Interval{0, 255}});
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(reg_bound(r, "acc").err_q32, kErrOne - (kErrOne >> 3));
}

TEST(PrecisionTransfer, MaskClampsLargeErrorToSmallRing) {
  // Masking onto a tiny ring caps the error at half that ring: &1 keeps
  // the bound at min(truncation term, err_ring_half(1) = one unit), i.e.
  // the sub-unit truncation term survives and nothing larger can.
  ProgramBuilder b("mask_clamp");
  const auto idx = b.konst(0);
  const auto v = b.band(b.shr(b.load_field(FieldRef::kMetaIngressTs),
                              b.konst(33)),
                        b.konst(1));
  b.store_reg(0, idx, v);
  RegisterFile regs;
  regs.declare("acc", 1, 64);
  const PrecisionResult r = run_one(b.take(), regs, small_budget());
  EXPECT_EQ(reg_bound(r, "acc").err_q32, kErrOne - 1);  // (2^32-1)/2^32
  EXPECT_LE(reg_bound(r, "acc").err_q32, analysis::err_ring_half(1));
}

TEST(PrecisionTransfer, XorWithExactOperandStaysOnRing) {
  // Count-sketch sign flip: sgn = (hash >> 1) & 1; sgn ^ 1 must not poison
  // the minus-counter chain — the XOR re-anchors on the same 2-ring.
  ProgramBuilder b("sign_flip");
  const auto idx = b.konst(0);
  const auto h = b.hash1(b.load_field(FieldRef::kIpv4Src));
  const auto sgn = b.band(b.shr(h, b.konst(1)), b.konst(1));
  const auto inv = b.bxor(sgn, b.konst(1));
  b.store_reg(0, idx, inv);
  RegisterFile regs;
  regs.declare("acc", 1, 64);
  const PrecisionResult r = run_one(b.take(), regs, small_budget());
  EXPECT_TRUE(r.ok());
  EXPECT_LE(reg_bound(r, "acc").err_q32, kErrOne >> 1);
}

TEST(PrecisionTransfer, BitOpsOnTwoErroneousOperandsAreVacuous) {
  // OR of two temps that BOTH carry error has no re-anchor operand: the
  // result must be the (finite) vacuous top, reported as S4-PREC-001.
  ProgramBuilder b("or_poison");
  const auto idx = b.konst(0);
  const auto e1 = b.shr(b.load_field(FieldRef::kIpv4Src), b.konst(3));
  const auto e2 = b.shr(b.load_field(FieldRef::kIpv4Dst), b.konst(5));
  b.store_reg(0, idx, b.bor(e1, e2));
  RegisterFile regs;
  regs.declare("acc", 1, 64);
  const PrecisionResult r = run_one(b.take(), regs, small_budget());
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_rule(r, "S4-PREC-001"));
  EXPECT_TRUE(reg_bound(r, "acc").vacuous);
  // Finite top: half the 64-bit ring, never infinity.
  EXPECT_EQ(reg_bound(r, "acc").err_q32, analysis::err_ring_half(64));
}

TEST(PrecisionTransfer, NarrowRegisterStoreClampsToItsRing) {
  // Storing a poisoned value into an 8-bit array re-anchors on the 2^8
  // ring: the bound is half that ring — vacuous for the cell, but 128, not
  // 2^63.
  ProgramBuilder b("narrow_store");
  const auto idx = b.konst(0);
  const auto e1 = b.shr(b.load_field(FieldRef::kIpv4Src), b.konst(3));
  const auto e2 = b.shr(b.load_field(FieldRef::kIpv4Dst), b.konst(5));
  b.store_reg(0, idx, b.bor(e1, e2));
  RegisterFile regs;
  regs.declare("acc8", 1, 8);
  const PrecisionResult r = run_one(b.take(), regs, small_budget());
  EXPECT_EQ(reg_bound(r, "acc8").err_q32, analysis::err_ring_half(8));
  EXPECT_TRUE(reg_bound(r, "acc8").vacuous);
}

// ---- select -----------------------------------------------------------------

TEST(PrecisionTransfer, ProvableSelectTakesOneBranch) {
  ProgramBuilder b("select_provable");
  const auto idx = b.konst(0);
  const auto cond = b.le(b.konst(1), b.konst(2));  // provably true
  const auto exact = b.load_field(FieldRef::kIpv4Src);
  const auto fuzzy = b.shr(exact, b.konst(4));
  b.store_reg(0, idx, b.select(cond, exact, fuzzy));
  RegisterFile regs;
  regs.declare("acc", 1, 64);
  const PrecisionResult r = run_one(b.take(), regs, small_budget());
  EXPECT_EQ(reg_bound(r, "acc").err_q32, U128{0});
}

TEST(PrecisionTransfer, UnprovableSelectJoinsBranchErrors) {
  ProgramBuilder b("select_join");
  const auto idx = b.konst(0);
  const auto cond = b.le(b.load_field(FieldRef::kIpv4Src), b.konst(7));
  const auto exact = b.konst(3);
  const auto fuzzy = b.shr(b.load_field(FieldRef::kIpv4Dst), b.konst(4));
  b.store_reg(0, idx, b.select(cond, exact, fuzzy));
  RegisterFile regs;
  regs.declare("acc", 1, 64);
  const PrecisionResult r = run_one(b.take(), regs, small_budget());
  EXPECT_EQ(reg_bound(r, "acc").err_q32, kErrOne - (kErrOne >> 4));
}

// ---- approx spans -----------------------------------------------------------

TEST(PrecisionSpans, BuilderRecordsSqrtSpanAndPassUsesContract) {
  ProgramBuilder b("sqrt_span");
  const auto idx = b.konst(0);
  b.store_reg(0, idx, b.approx_sqrt(b.load_field(FieldRef::kIpv4Src)));
  const Program p = b.take();
  ASSERT_EQ(p.approx_spans.size(), 1u);
  EXPECT_EQ(p.approx_spans[0].fn, p4sim::ApproxSpan::Fn::kSqrt);

  RegisterFile regs;
  regs.declare("sd", 1, 64);
  AnalysisOptions o = small_budget();
  o.field_bounds.push_back({FieldRef::kIpv4Src, 100});
  const PrecisionResult r = run_one(p, regs, o);
  EXPECT_TRUE(r.ok());
  // Declared contract on an exact input: sqrt(100)+1 scales rel 1/8, +2 abs.
  const U128 expect = U128{2} * kErrOne + (U128{11} * kErrOne) / 8;
  EXPECT_EQ(reg_bound(r, "sd").err_q32, expect);
}

TEST(PrecisionSpans, TableLookupSpanHookUsesDeclaredError) {
  // A future-tier extern: the builder (or a frontend) declares a lookup
  // whose per-entry error is rel 1/16 of the implemented output.  The body
  // here is a stand-in add; the span contract overrides its literal error.
  ProgramBuilder b("lut_span");
  const auto idx = b.konst(0);
  const auto x = b.load_field(FieldRef::kIpv4Src);
  const auto out = b.add(x, b.konst(0));
  b.store_reg(0, idx, out);
  Program p = b.take();
  p4sim::ApproxSpan span;
  span.fn = p4sim::ApproxSpan::Fn::kTableLookup;
  span.begin = 0;
  span.end = 4;  // instruction writing `out` (konst, load, konst, add)
  span.in_a = x;
  span.in_b = x;
  span.out = out;
  span.rel_num = 1;
  span.rel_den = 16;
  span.abs = 0;
  p.approx_spans.push_back(span);

  RegisterFile regs;
  regs.declare("lut", 1, 64);
  AnalysisOptions o = small_budget();
  o.field_bounds.push_back({FieldRef::kIpv4Src, 160});
  const PrecisionResult r = run_one(p, regs, o);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(reg_bound(r, "lut").err_q32, U128{10} * kErrOne);
}

TEST(PrecisionSpans, CorruptSpanMetadataIsReportedAndIgnored) {
  ProgramBuilder b("bad_span");
  const auto idx = b.konst(0);
  const auto out = b.add(b.load_field(FieldRef::kIpv4Src), b.konst(0));
  b.store_reg(0, idx, out);
  Program p = b.take();
  p4sim::ApproxSpan span;
  span.fn = p4sim::ApproxSpan::Fn::kSqrt;
  span.begin = 2;
  span.end = 99;  // past the end of the program
  span.out = out;
  span.rel_num = 1;
  span.rel_den = 8;
  p.approx_spans.push_back(span);

  RegisterFile regs;
  regs.declare("acc", 1, 64);
  const PrecisionResult r = run_one(p, regs, small_budget());
  EXPECT_TRUE(has_rule(r, "S4-PREC-004"));
  EXPECT_FALSE(r.ok());
  // The body is analyzed literally: an exact add, so error 0.
  EXPECT_EQ(reg_bound(r, "acc").err_q32, U128{0});
}

TEST(PrecisionSpans, OptimizerClearsStaleSpans) {
  // Any rewrite invalidates the instruction ranges the builder recorded;
  // keeping them would apply contracts to the wrong instructions.
  ProgramBuilder b("opt_spans");
  const auto idx = b.konst(0);
  // Dead code plus a span: DCE renumbers, so spans must be dropped.
  (void)b.add(b.konst(1), b.konst(2));
  b.store_reg(0, idx, b.approx_sqrt(b.load_field(FieldRef::kIpv4Src)));
  Program p = b.take();
  ASSERT_FALSE(p.approx_spans.empty());
  RegisterFile regs;
  regs.declare("sd", 1, 64);
  analysis::PassManagerOptions opts;
  (void)analysis::optimize_program(p, regs, opts);
  EXPECT_TRUE(p.approx_spans.empty());
}

// ---- error-history acceleration --------------------------------------------

TEST(PrecisionFixpoint, LinearErrorGrowthIsAccelerated) {
  // acc += field >> 1 accumulates a half-unit truncation error per packet;
  // the polynomial accelerator must jump it to the observation budget
  // instead of iterating 2^20 times.
  ProgramBuilder b("linear_err");
  const auto idx = b.konst(0);
  const auto inc = b.shr(b.load_field(FieldRef::kTcpFlags), b.konst(1));
  b.store_reg(0, idx, b.add(b.load_reg(0, idx), inc));
  RegisterFile regs;
  regs.declare("acc", 1, 64);
  AnalysisOptions o;
  o.max_observations = std::uint64_t{1} << 20;
  const PrecisionResult r = run_one(b.take(), regs, o);
  EXPECT_TRUE(r.extrapolated);
  EXPECT_LT(r.iterations, std::uint64_t{1} << 20);
  const U128 err = reg_bound(r, "acc").err_q32;
  // Half a unit per observation, within a few units of slack.
  EXPECT_GE(err, (kErrOne >> 1) * ((U128{1} << 20) - 8));
  EXPECT_LE(err, (kErrOne >> 1) * ((U128{1} << 20) + 8));
  EXPECT_FALSE(reg_bound(r, "acc").vacuous);
}

TEST(PrecisionFixpoint, ConstantStoreStopsAtFixpoint) {
  ProgramBuilder b("const_store");
  b.store_reg(0, b.konst(0), b.konst(300));
  RegisterFile regs;
  regs.declare("acc", 1, 64);
  const PrecisionResult r = run_one(b.take(), regs, {});
  EXPECT_TRUE(r.fixpoint);
  EXPECT_FALSE(r.extrapolated);
  // Two exact steps (the second changes nothing) plus the final step that
  // captures the fields.
  EXPECT_EQ(r.iterations, 3u);
}

TEST(PrecisionFixpoint, BudgetBelowWarmupRunsExactly) {
  AnalysisOptions o;
  o.max_observations = 100;
  const auto sw = analysis::build_example("echo");
  const PrecisionResult r = analysis::analyze_precision(*sw, o);
  // 100 exact steps plus the final step.
  EXPECT_EQ(r.iterations, 101u);
  EXPECT_FALSE(r.fixpoint);
  EXPECT_FALSE(r.extrapolated);
}

TEST(PrecisionFixpoint, IrregularGrowthWidensOnlyTheErrorThatMoved) {
  // a += 1; b += a >> 3: `b`'s value grows by a staircase no degree<=2
  // polynomial fits, so the engine iterates exactly to its cap, then widens
  // every register the probe step still moves -- the linear `a` included,
  // because acceleration applies to every register or to none.  Widening
  // takes both values to the full ring, but only `b`, whose truncating
  // shift adds error on every step, gets the vacuous half-ring: `a`'s
  // error never moved, and add is a ring translation, so it stays exact.
  ProgramBuilder b("irregular");
  const auto idx = b.konst(0);
  const auto a = b.add(b.load_reg(0, idx), b.konst(1));
  b.store_reg(0, idx, a);
  b.store_reg(1, idx, b.add(b.load_reg(1, idx), b.shr(a, b.konst(3))));
  RegisterFile regs;
  regs.declare("a", 1, 64);
  regs.declare("b", 1, 64);
  const PrecisionResult r = run_one(b.take(), regs, {});
  const auto has_rule = [&](const char* name, const char* rule) {
    for (const auto& d : r.diags.diagnostics()) {
      if (d.loc.object == name && d.rule == rule) return true;
    }
    return false;
  };
  for (const char* name : {"a", "b"}) {
    EXPECT_TRUE(reg_bound(r, name).assumed) << name;
    EXPECT_TRUE(has_rule(name, "S4-PREC-002")) << name;
  }
  EXPECT_FALSE(reg_bound(r, "a").vacuous);
  EXPECT_EQ(reg_bound(r, "a").err_q32, U128{0});
  EXPECT_FALSE(has_rule("a", "S4-PREC-001"));
  EXPECT_TRUE(reg_bound(r, "b").vacuous);
  EXPECT_EQ(reg_bound(r, "b").err_q32, analysis::err_ring_half(64));
  EXPECT_TRUE(has_rule("b", "S4-PREC-001"));
  EXPECT_EQ(r.diags.diagnostics().size(), 3u);
  // `iterations` counts abstract packets executed: 4096 exact steps, the
  // probe, two settles and the final step.
  EXPECT_EQ(r.iterations, 4100u);
  EXPECT_FALSE(r.fixpoint);
  EXPECT_FALSE(r.extrapolated);
}

// ---- catalog acceptance -----------------------------------------------------

TEST(PrecisionCatalog, EveryAppProvesFiniteNonVacuousBounds) {
  for (const analysis::ExampleApp& app : analysis::example_apps()) {
    const auto sw = analysis::build_example(app.name);
    AnalysisOptions o;
    o.max_observations = app.max_observations;
    const PrecisionResult r = analysis::analyze_precision(*sw, o);
    EXPECT_TRUE(r.ok()) << app.name;
    EXPECT_EQ(r.diags.count(Severity::kError), 0u) << app.name;
    for (const ErrorBound& eb : r.register_bounds) {
      EXPECT_FALSE(eb.vacuous) << app.name << ": " << eb.name;
      EXPECT_FALSE(eb.assumed) << app.name << ": " << eb.name;
      EXPECT_LT(eb.err_q32, kErrTop) << app.name << ": " << eb.name;
    }
    for (const ErrorBound& eb : r.field_bounds) {
      EXPECT_FALSE(eb.vacuous) << app.name << ": " << eb.name;
    }
  }
}

TEST(PrecisionCatalog, EchoVarianceChainShowsSqrtContract) {
  // The echo app's sd field goes through approx_sqrt of a 64-bit variance:
  // its bound must be positive (the contract is not free) yet non-vacuous.
  const auto sw = analysis::build_example("echo");
  const PrecisionResult r = analysis::analyze_precision(*sw, {});
  bool found = false;
  for (const ErrorBound& eb : r.field_bounds) {
    if (eb.name == "echo.sd") {
      found = true;
      EXPECT_GT(eb.err_q32, U128{0});
      EXPECT_FALSE(eb.vacuous);
    }
  }
  EXPECT_TRUE(found);
}

// ---- rendering --------------------------------------------------------------

TEST(PrecisionRender, Q32StringsAreExact) {
  EXPECT_EQ(analysis::err_q32_str(0), "0.00");
  EXPECT_EQ(analysis::err_q32_str(kErrOne), "1.00");
  EXPECT_EQ(analysis::err_q32_str(kErrOne + (kErrOne >> 2)), "1.25");
  EXPECT_EQ(analysis::err_q32_str(kErrOne >> 1), "0.50");
  EXPECT_EQ(analysis::err_q32_raw_str(kErrOne), "4294967296");
}

// ---- sketch auto-sizing -----------------------------------------------------

TEST(SketchSizing, InvertsCountMinBoundFromDocs) {
  // docs/SKETCH.md: excess <= 2N/w with probability >= 1 - 2^-d.  Inverting
  // eps = 2/w, delta = 2^-d for eps=1%, delta=2%:
  const sketch::SketchSizing s =
      sketch::suggest_sizing(0.01, 0.02, std::uint64_t{1} << 20);
  ASSERT_TRUE(s.feasible) << s.note;
  EXPECT_EQ(s.cm_width, 256u);  // ceil_pow2(2 / 0.01)
  EXPECT_EQ(s.cm_depth, 6u);    // ceil(log2(1 / 0.02))
  EXPECT_EQ(s.cm_memory_bytes, 256u * 6u * 8u);
  EXPECT_EQ(s.cm_max_excess, (2u * (1u << 20)) / 256u);
  // Achieved bounds can only be tighter than requested.
  EXPECT_LE(s.cm_achieved_eps, 0.01);
  EXPECT_LE(s.cm_achieved_delta, 0.02);
  // Count-sketch: eps = 2/sqrt(w) -> w = ceil_pow2(4/eps^2).
  EXPECT_EQ(s.cs_width, 65536u);
  EXPECT_LE(s.cs_achieved_eps, 0.01);
}

TEST(SketchSizing, InfeasibleTargetsAreRefusedNotRounded) {
  // Width past the hash layout cap (kColumnShift columns).
  EXPECT_FALSE(
      sketch::suggest_sizing(1e-8, 0.5, std::uint64_t{1} << 20).feasible);
  // Depth past the independent hash rows available.
  EXPECT_FALSE(
      sketch::suggest_sizing(0.01, 1e-10, std::uint64_t{1} << 20).feasible);
  // Out-of-domain parameters.
  EXPECT_FALSE(sketch::suggest_sizing(0.0, 0.5, 1).feasible);
  EXPECT_FALSE(sketch::suggest_sizing(0.5, 1.5, 1).feasible);
}

TEST(SketchSizing, ReportPathEmitsDiagnostics) {
  analysis::DiagnosticEngine ok_diags;
  (void)analysis::report_sketch_sizing(0.01, 0.02, 1 << 20, "app", ok_diags);
  ASSERT_EQ(ok_diags.diagnostics().size(), 1u);
  EXPECT_EQ(ok_diags.diagnostics()[0].rule, "S4-PREC-006");
  EXPECT_FALSE(ok_diags.has_errors());

  analysis::DiagnosticEngine bad_diags;
  (void)analysis::report_sketch_sizing(1e-8, 0.5, 1 << 20, "app", bad_diags);
  ASSERT_EQ(bad_diags.diagnostics().size(), 1u);
  EXPECT_EQ(bad_diags.diagnostics()[0].rule, "S4-PREC-005");
  EXPECT_TRUE(bad_diags.has_errors());
}

}  // namespace
