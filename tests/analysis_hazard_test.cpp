// Register hazard pass: value-numbered index identity, RMW splitting,
// cross-stage sharing, and the bmv2 -> strict severity escalation.
#include <gtest/gtest.h>

#include <string>

#include "analysis/analysis.hpp"
#include "p4sim/p4sim.hpp"

namespace {

using analysis::AnalysisResult;
using analysis::Severity;
using analysis::TargetProfile;
using p4sim::FieldRef;
using p4sim::Program;
using p4sim::ProgramBuilder;
using p4sim::RegisterFile;

const analysis::Diagnostic* find_rule(const AnalysisResult& r,
                                      const std::string& rule) {
  for (const auto& d : r.diags.diagnostics()) {
    if (d.rule == rule) return &d;
  }
  return nullptr;
}

/// The hazard pass alone, over one program as verify_program scopes it.
AnalysisResult hazards(const Program& program, const RegisterFile& regs,
                       const TargetProfile& profile = TargetProfile::bmv2()) {
  AnalysisResult r;
  analysis::run_hazard_pass({analysis::HazardScope{&program, 0}}, regs,
                            program.name, profile, r);
  return r;
}

/// The hazard pass alone, over a switch as verify_switch scopes it.
AnalysisResult hazards(const p4sim::P4Switch& sw,
                       const TargetProfile& profile = TargetProfile::bmv2()) {
  AnalysisResult r;
  analysis::run_hazard_pass(analysis::build_pipeline_model(sw).scopes,
                            sw.registers(), sw.name(), profile, r);
  return r;
}

Program multi_index_program() {
  ProgramBuilder b("fixture_multi_index");
  const auto i0 = b.konst(0);
  const auto i1 = b.konst(1);
  const auto a = b.load_reg(0, i0);
  const auto c = b.load_reg(0, i1);
  const auto s = b.add(a, c);
  b.store_reg(0, i0, s);
  return b.take();
}

TEST(HazardPass, MultiIndexAccessIsWarningOnBmv2) {
  RegisterFile regs;
  regs.declare("counters", 16, 64);
  const AnalysisResult r = hazards(multi_index_program(), regs);
  const auto* d = find_rule(r, "S4-HAZ-001");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->loc.object, "counters");
  EXPECT_TRUE(r.ok());
}

TEST(HazardPass, MultiIndexAccessEscalatesToErrorOnStrict) {
  RegisterFile regs;
  regs.declare("counters", 16, 64);
  const AnalysisResult r =
      hazards(multi_index_program(), regs, TargetProfile::strict());
  const auto* d = find_rule(r, "S4-HAZ-001");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_FALSE(r.ok());
}

TEST(HazardPass, ReadAfterWriteSplitsTheRmw) {
  RegisterFile regs;
  regs.declare("state", 4, 64);
  ProgramBuilder b("fixture_rmw_split");
  const auto idx = b.konst(0);
  const auto cur = b.load_reg(0, idx);
  const auto one = b.konst(1);
  const auto inc = b.add(cur, one);
  b.store_reg(0, idx, inc);
  const auto again = b.load_reg(0, idx);  // second access after the write
  b.store_field(FieldRef::kMetaEgressSpec, again);
  const AnalysisResult r = hazards(b.take(), regs);
  const auto* d = find_rule(r, "S4-HAZ-002");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  // Same constant index everywhere: no multi-index finding.
  EXPECT_EQ(find_rule(r, "S4-HAZ-001"), nullptr);
}

TEST(HazardPass, ValueNumberingRecognizesEqualIndexExpressions) {
  // The index (src >> 8) & 0xFF is computed twice from scratch; value
  // numbering must see one index expression, not two.
  RegisterFile regs;
  regs.declare("counters", 256, 64);
  ProgramBuilder b("fixture_same_index");
  const auto mask = b.konst(0xFF);
  const auto shift = b.konst(8);
  const auto f1 = b.load_field(FieldRef::kIpv4Src);
  const auto idx1 = b.band(b.shr(f1, shift), mask);
  const auto cur = b.load_reg(0, idx1);
  const auto one = b.konst(1);
  const auto inc = b.add(cur, one);
  const auto f2 = b.load_field(FieldRef::kIpv4Src);
  const auto idx2 = b.band(b.shr(f2, shift), mask);
  b.store_reg(0, idx2, inc);
  const AnalysisResult r = hazards(b.take(), regs);
  EXPECT_EQ(find_rule(r, "S4-HAZ-001"), nullptr);
  EXPECT_EQ(find_rule(r, "S4-HAZ-002"), nullptr);
  EXPECT_TRUE(r.ok());
}

TEST(HazardPass, RegisterLoadsAreNeverEqualIndexSources) {
  // An index READ from a register is fresh each time: two loads through
  // such indices must count as distinct expressions.
  RegisterFile regs;
  regs.declare("indirect", 4, 64);
  regs.declare("data", 64, 64);
  ProgramBuilder b("fixture_indirect");
  const auto zero = b.konst(0);
  const auto idx_a = b.load_reg(0, zero);
  const auto idx_b = b.load_reg(0, zero);  // same cell, but mutable state
  const auto va = b.load_reg(1, idx_a);
  const auto vb = b.load_reg(1, idx_b);
  b.store_field(FieldRef::kMetaEgressSpec, b.add(va, vb));
  const AnalysisResult r = hazards(b.take(), regs);
  const auto* d = find_rule(r, "S4-HAZ-001");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->loc.object, "data");
}

TEST(HazardPass, CrossStageSharingIsNoteOnBmv2ErrorOnStrict) {
  p4sim::P4Switch sw("fixture_cross_stage");
  const auto reg = sw.declare_register("shared", 1, 64);
  ProgramBuilder wb("writer");
  const auto idx = wb.konst(0);
  const auto one = wb.konst(1);
  wb.store_reg(reg, idx, one);
  const auto writer = sw.add_action(wb.take());
  ProgramBuilder rb("reader");
  const auto ridx = rb.konst(0);
  const auto v = rb.load_reg(reg, ridx);
  rb.store_field(FieldRef::kMetaEgressSpec, v);
  const auto reader = sw.add_action(rb.take());
  sw.add_program_stage(writer);
  sw.add_program_stage(reader);

  const AnalysisResult bmv2 = hazards(sw);
  const auto* note = find_rule(bmv2, "S4-HAZ-003");
  ASSERT_NE(note, nullptr);
  EXPECT_EQ(note->severity, Severity::kNote);
  EXPECT_EQ(note->loc.program, "fixture_cross_stage");
  EXPECT_TRUE(bmv2.ok());

  const AnalysisResult strict = hazards(sw, TargetProfile::strict());
  const auto* err = find_rule(strict, "S4-HAZ-003");
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->severity, Severity::kError);
  EXPECT_FALSE(strict.ok());
}

TEST(HazardPass, SingleRmwProgramIsClean) {
  RegisterFile regs;
  regs.declare("counter", 256, 64);
  ProgramBuilder b("fixture_clean_rmw");
  const auto f = b.load_field(FieldRef::kIpv4Dst);
  const auto mask = b.konst(0xFF);
  const auto idx = b.band(f, mask);
  const auto cur = b.load_reg(0, idx);
  const auto one = b.konst(1);
  b.store_reg(0, idx, b.add(cur, one));
  const AnalysisResult r = hazards(b.take(), regs, TargetProfile::strict());
  EXPECT_TRUE(r.diags.diagnostics().empty());
}

TEST(HazardPass, ShippedTrackFreqMultiIndexStaysBelowErrorOnBmv2) {
  // The shipped percentile step legitimately probes neighbouring counter
  // cells; on bmv2 that is a portability warning, never an error.
  const auto sw = analysis::build_example("case_study");
  const AnalysisResult r = hazards(*sw);
  const auto* d = find_rule(r, "S4-HAZ-001");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_TRUE(r.ok());
}

}  // namespace
