// The switches of the guarded-run fuzz (tests/threaded_guard_test.cpp).
//
// Each seed builds a switch with two random actions (tests/support/
// ir_gen.hpp, biased toward guarded blocks), each applied through a table
// keyed on the ingress port so action data changes packet by packet, then
// an exporter stage that digests every packet field.  The lowering golden
// (tests/threaded_lowering_golden_test.cpp) lowers the same two actions, so
// both tests build them here from one seed range and one IrGenOptions.
#pragma once

#include <bitset>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "p4sim/p4sim.hpp"
#include "ir_gen.hpp"

namespace test_support {

/// Seeds 1..kGuardFuzzSeeds.
inline constexpr std::uint64_t kGuardFuzzSeeds = 240;

/// The generator settings of the guarded-run fuzz.
inline IrGenOptions guard_fuzz_options() {
  IrGenOptions opt;
  opt.guarded_block_percent = 20;
  opt.max_instructions = 64;
  return opt;
}

/// Union of every installed action's read-before-write set — the
/// `observable` argument P4Switch lowers each action with.
inline std::bitset<p4sim::kTempCount> observable_of(const p4sim::P4Switch& sw) {
  std::bitset<p4sim::kTempCount> obs;
  for (std::size_t a = 0; a < sw.action_count(); ++a) {
    obs |= p4sim::read_before_write(sw.action(static_cast<p4sim::ActionId>(a)));
  }
  return obs;
}

/// Loads every packet field and digests it (id 100 + field), so the digest
/// stream carries each field as the earlier stages left it.
inline p4sim::Program field_exporter() {
  p4sim::ProgramBuilder b("export_fields");
  const p4sim::TempId one = b.konst(1);
  for (std::size_t f = 0; f < p4sim::kFieldCount; ++f) {
    const p4sim::TempId v = b.load_field(static_cast<p4sim::FieldRef>(f));
    b.digest_if(one, static_cast<std::uint32_t>(100 + f), v, v, v);
  }
  return b.take();
}

/// Action data drawn like the generator's constants: zero often enough
/// that kParam-guarded blocks are skipped on some packets.
inline std::vector<p4sim::Word> random_action_data(std::mt19937_64& rng) {
  std::vector<p4sim::Word> data(4);
  for (p4sim::Word& w : data) w = rng() % 3 == 0 ? 0 : rng() % 5;
  return data;
}

/// One switch of the fuzz: the random actions are action ids 0 and 1, the
/// exporter is id 2.  `first_action`, when given, receives a copy of
/// action 0.
inline std::unique_ptr<p4sim::P4Switch> fuzz_switch(
    std::uint64_t seed, const IrGenOptions& opt,
    p4sim::Program* first_action) {
  auto sw = std::make_unique<p4sim::P4Switch>("fuzz");
  const std::vector<p4sim::RegisterId> regs =
      declare_gen_registers(sw->registers());
  std::mt19937_64 rng(seed ^ 0x5eedULL);
  for (int k = 0; k < 2; ++k) {
    p4sim::Program prog = random_program(
        seed * 2 + static_cast<std::uint64_t>(k), sw->registers(), regs, opt);
    if (k == 0 && first_action != nullptr) *first_action = prog;
    const p4sim::ActionId action = sw->add_action(std::move(prog));
    const p4sim::TableId table = sw->add_table(
        "t" + std::to_string(k),
        {p4sim::KeySpec{p4sim::FieldRef::kMetaIngressPort,
                        p4sim::MatchKind::kExact}});
    for (p4sim::Word port = 0; port < 3; ++port) {
      p4sim::TableEntry e;
      p4sim::KeyMatch km;
      km.value = port;
      e.key.push_back(km);
      e.action = action;
      e.action_data = random_action_data(rng);
      (void)sw->table(table).insert(std::move(e));
    }
    sw->table(table).set_default_action(action, random_action_data(rng));
    sw->add_table_stage(table);
  }
  sw->add_program_stage(sw->add_action(field_exporter()));
  return sw;
}

}  // namespace test_support
