// Lint gate acceptance: every shipped example application must produce ZERO
// error-severity diagnostics under the default (bmv2) profile — the contract
// CI enforces via stat4_lint — plus target-constraint fixtures, the
// emitted-P4 source lint, profile lookup, and the rule catalogue.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>

#include "analysis/analysis.hpp"
#include "p4gen/emitter.hpp"
#include "p4sim/p4sim.hpp"

namespace {

using analysis::AnalysisOptions;
using analysis::AnalysisResult;
using analysis::Severity;
using analysis::TargetProfile;
using p4sim::FieldRef;
using p4sim::ProgramBuilder;
using p4sim::RegisterFile;

const analysis::Diagnostic* find_rule(const AnalysisResult& r,
                                      const std::string& rule) {
  for (const auto& d : r.diags.diagnostics()) {
    if (d.rule == rule) return &d;
  }
  return nullptr;
}

// ---- THE acceptance criterion ----------------------------------------------

TEST(LintGate, EveryShippedExampleIsErrorFreeOnBmv2) {
  for (const analysis::ExampleApp& app : analysis::example_apps()) {
    const auto sw = analysis::build_example(app.name);
    const AnalysisResult r = analysis::verify_switch(*sw, {});
    std::ostringstream os;
    r.diags.render_text(os, Severity::kError);
    EXPECT_TRUE(r.ok()) << app.name << " reported errors:\n" << os.str();
  }
}

TEST(LintGate, NomulBuildIsPortableToTheNomulTarget) {
  AnalysisOptions options;
  options.profile = TargetProfile::hardware_nomul();
  const auto sw = analysis::build_example("case_study_nomul");
  const AnalysisResult r = analysis::verify_switch(*sw, options);
  std::ostringstream os;
  r.diags.render_text(os, Severity::kError);
  EXPECT_TRUE(r.ok()) << os.str();
}

TEST(LintGate, Bmv2BuildIsRejectedByTheNomulTarget) {
  AnalysisOptions options;
  options.profile = TargetProfile::hardware_nomul();
  const auto sw = analysis::build_example("case_study");
  const AnalysisResult r = analysis::verify_switch(*sw, options);
  const auto* d = find_rule(r, "S4-TGT-001");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_FALSE(r.ok());
}

// ---- target-constraint fixtures --------------------------------------------

TEST(ConstraintPass, VariableShiftRejectedOnConstShiftTarget) {
  RegisterFile regs;
  ProgramBuilder b("fixture_var_shift");
  const auto v = b.load_field(FieldRef::kIpv4Src);
  const auto s = b.load_field(FieldRef::kIpv4Ttl);
  b.store_field(FieldRef::kMetaEgressSpec, b.shr(v, s));
  const p4sim::Program p = b.take();

  AnalysisResult r;
  analysis::run_constraint_pass(p, TargetProfile::strict(), r);
  const auto* d = find_rule(r, "S4-TGT-004");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);

  const AnalysisResult bmv2 = analysis::verify_program(p, regs, {});
  EXPECT_EQ(find_rule(bmv2, "S4-TGT-004"), nullptr);
}

TEST(ConstraintPass, ConstantShiftAcceptedOnConstShiftTarget) {
  ProgramBuilder b("fixture_const_shift");
  const auto v = b.load_field(FieldRef::kIpv4Src);
  const auto eight = b.konst(8);
  b.store_field(FieldRef::kMetaEgressSpec, b.shr(v, eight));
  AnalysisResult r;
  analysis::run_constraint_pass(b.take(), TargetProfile::strict(), r);
  EXPECT_EQ(find_rule(r, "S4-TGT-004"), nullptr);
}

TEST(ConstraintPass, InstructionBudgetEnforced) {
  RegisterFile regs;
  ProgramBuilder b("fixture_too_long");
  auto acc = b.konst(1);
  for (int i = 0; i < 8; ++i) acc = b.add(acc, acc);
  b.store_field(FieldRef::kMetaEgressSpec, acc);
  AnalysisOptions options;
  options.profile.max_instructions = 4;
  const AnalysisResult r = analysis::verify_program(b.take(), regs, options);
  EXPECT_NE(find_rule(r, "S4-TGT-002"), nullptr);
  EXPECT_FALSE(r.ok());
}

TEST(ConstraintPass, TempsBudgetEnforced) {
  RegisterFile regs;
  ProgramBuilder b("fixture_many_temps");
  auto acc = b.konst(0);
  for (int i = 0; i < 12; ++i) acc = b.add(acc, b.konst(1));
  b.store_field(FieldRef::kMetaEgressSpec, acc);
  AnalysisOptions options;
  options.profile.max_temps = 4;
  const AnalysisResult r = analysis::verify_program(b.take(), regs, options);
  const auto* d = find_rule(r, "S4-TGT-006");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
}

TEST(ConstraintPass, StateBudgetEnforced) {
  RegisterFile regs;
  regs.declare("big", 1024, 64);  // 8 KiB
  ProgramBuilder b("fixture_state");
  const auto idx = b.konst(0);
  const auto v = b.load_reg(0, idx);
  b.store_field(FieldRef::kMetaEgressSpec, v);
  AnalysisOptions options;
  options.profile.max_state_bytes = 4096;
  const AnalysisResult r = analysis::verify_program(b.take(), regs, options);
  EXPECT_NE(find_rule(r, "S4-TGT-005"), nullptr);
}

// ---- emitted-P4 source lint ------------------------------------------------

AnalysisResult lint_source(const std::string& src) {
  AnalysisResult r;
  analysis::lint_p4_source(src, "test.p4", r);
  r.diags.sort();
  return r;
}

TEST(SourceLint, DivisionAndModuloAreErrors) {
  const AnalysisResult r = lint_source(
      "control c() {\n"
      "  x = a / b;\n"
      "  y = a % 8;\n"
      "}\n");
  const auto& diags = r.diags.diagnostics();
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags[0].rule, "S4-SRC-001");
  EXPECT_EQ(diags[0].loc.instruction, 2);  // 1-based line numbers
  EXPECT_EQ(diags[1].loc.instruction, 3);
}

TEST(SourceLint, FloatTypesAreErrors) {
  const AnalysisResult r = lint_source("float x = 1; double y;\n");
  ASSERT_EQ(r.diags.diagnostics().size(), 2u);
  EXPECT_EQ(r.diags.diagnostics()[0].rule, "S4-SRC-002");
}

TEST(SourceLint, LoopKeywordsAreErrors) {
  const AnalysisResult r = lint_source("while (x) { }\nfor (i = 0;;) { }\n");
  ASSERT_EQ(r.diags.diagnostics().size(), 2u);
  EXPECT_EQ(r.diags.diagnostics()[0].rule, "S4-SRC-003");
}

TEST(SourceLint, CommentsAndIdentifiersDoNotTrigger) {
  const AnalysisResult r = lint_source(
      "// compute a / b in the controller, not here; while unusual...\n"
      "/* float fallback % removed */\n"
      "action forward(bit<9> port) { formal_x = do_hash(); }\n");
  EXPECT_TRUE(r.diags.diagnostics().empty());
}

TEST(SourceLint, ShippedEmissionsAreClean) {
  for (const char* name : {"echo", "case_study", "case_study_nomul"}) {
    const auto sw = analysis::build_example(name);
    AnalysisResult r;
    analysis::lint_p4_source(p4gen::emit_p4(*sw), std::string(name) + ".p4",
                             r);
    std::ostringstream os;
    r.diags.render_text(os);
    EXPECT_TRUE(r.diags.diagnostics().empty()) << name << ":\n" << os.str();
  }
}

// ---- profiles / catalogue ---------------------------------------------------

TEST(Profiles, ByNameRoundTripsAndRejectsUnknown) {
  EXPECT_EQ(TargetProfile::by_name("bmv2").name, "bmv2");
  EXPECT_FALSE(TargetProfile::by_name("hardware-nomul").has_mul);
  EXPECT_TRUE(TargetProfile::by_name("strict").const_shift_only);
  EXPECT_THROW((void)TargetProfile::by_name("tofino99"),
               std::invalid_argument);
}

TEST(RuleCatalogue, IdsAreUniqueAndStable) {
  std::set<std::string> ids;
  for (const analysis::RuleInfo& rule : analysis::rule_catalogue()) {
    EXPECT_TRUE(ids.insert(rule.id).second) << "duplicate " << rule.id;
    EXPECT_EQ(std::string(rule.id).substr(0, 3), "S4-");
  }
  EXPECT_EQ(ids.size(), 35u);
  EXPECT_TRUE(ids.count("S4-OVF-003"));
  EXPECT_TRUE(ids.count("S4-HAZ-001"));
  EXPECT_TRUE(ids.count("S4-TGT-001"));
  EXPECT_TRUE(ids.count("S4-SRC-001"));
  EXPECT_TRUE(ids.count("S4-OPT-001"));
  EXPECT_TRUE(ids.count("S4-OPT-007"));
  EXPECT_TRUE(ids.count("S4-TV-001"));
  EXPECT_TRUE(ids.count("S4-TV-005"));
  EXPECT_TRUE(ids.count("S4-PREC-001"));
  EXPECT_TRUE(ids.count("S4-PREC-006"));
}

TEST(Catalogue, UnknownAppThrows) {
  EXPECT_THROW((void)analysis::build_example("no_such_app"),
               std::invalid_argument);
}

TEST(Diagnostics, JsonEscapingHandlesControlCharacters) {
  EXPECT_EQ(analysis::json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(analysis::json_escape(std::string(1, '\x01')), "\\u0001");
}

}  // namespace
