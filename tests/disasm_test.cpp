// Tests for the action-program disassembler.
#include "p4sim/disasm.hpp"

#include <gtest/gtest.h>

#include "stat4p4/stat4p4.hpp"

namespace p4sim {
namespace {

TEST(Disasm, ArithmeticInfix) {
  ProgramBuilder b("t");
  const TempId x = b.konst(4);
  const TempId y = b.konst(2);
  (void)b.add(x, y);
  const Program p = b.take();
  EXPECT_EQ(to_string(p.code[0]), "t0 = 4");
  EXPECT_EQ(to_string(p.code[2]), "t2 = t0 + t1");
}

TEST(Disasm, FieldAndRegisterForms) {
  RegisterFile rf;
  rf.declare("stat_xsum", 4);
  ProgramBuilder b("t");
  const TempId zero = b.konst(0);
  const TempId f = b.load_field(FieldRef::kIpv4Dst);
  const TempId r = b.load_reg(0, zero);
  b.store_reg(0, zero, b.add(f, r));
  b.store_field(FieldRef::kMetaEgressSpec, zero);
  const Program p = b.take();
  EXPECT_EQ(to_string(p.code[1]), "t1 = ipv4.dst");
  EXPECT_EQ(to_string(p.code[2], &rf), "t2 = stat_xsum[t0]");
  EXPECT_EQ(to_string(p.code[2]), "t2 = reg0[t0]");
  EXPECT_EQ(to_string(p.code[4], &rf), "stat_xsum[t0] := t3");
  EXPECT_EQ(to_string(p.code[5]), "meta.egress_spec := t0");
}

TEST(Disasm, SelectAndDigest) {
  ProgramBuilder b("t");
  const TempId c = b.konst(1);
  const TempId a = b.konst(2);
  const TempId d = b.konst(3);
  (void)b.select(c, a, d);
  b.digest_if(c, 7, a, d, c);
  const Program p = b.take();
  EXPECT_EQ(to_string(p.code[3]), "t3 = t0 ? t1 : t2");
  EXPECT_EQ(to_string(p.code[4]), "digest#7(t1, t2, t0) if t0");
}

TEST(Disasm, HashOps) {
  ProgramBuilder b("t");
  const TempId k = b.konst(5);
  (void)b.hash1(k);
  (void)b.hash2(k);
  const Program p = b.take();
  EXPECT_EQ(to_string(p.code[1]), "t1 = hash1(t0)");
  EXPECT_EQ(to_string(p.code[2]), "t2 = hash2(t0)");
}

TEST(Disasm, WholeProgramListsEveryInstruction) {
  stat4p4::Stat4Config cfg{1, 64, 2};
  P4Switch sw("d");
  const auto regs = stat4p4::declare_registers(sw, cfg);
  const auto prog = stat4p4::build_track_freq(regs, cfg, FieldRef::kIpv4Dst);
  const std::string text = disassemble(prog, &sw.registers());
  EXPECT_NE(text.find("action track_freq"), std::string::npos);
  EXPECT_NE(text.find("stat_xsum["), std::string::npos);
  EXPECT_NE(text.find("digest#2"), std::string::npos);  // imbalance digest
  // One line per instruction plus header/footer.
  const auto lines = std::count(text.begin(), text.end(), '\n');
  EXPECT_EQ(static_cast<std::size_t>(lines), prog.code.size() + 2);
}

TEST(Disasm, EveryOpcodeHasAName) {
  for (const OpInfo& info : kOpTable) {
    ASSERT_NE(info.name, nullptr);
    EXPECT_STRNE(info.name, "");
  }
}

TEST(Disasm, EveryFieldHasAName) {
  for (std::size_t f = 0; f < kFieldCount; ++f) {
    EXPECT_STRNE(field_name(static_cast<FieldRef>(f)), "?");
  }
}

}  // namespace
}  // namespace p4sim
