// The forms switch: the threaded op forms no catalog app lowers to.
//
// Its "forms" action compares two operands under each of the six
// comparisons in three shapes (both operands in temps, the constant kFormsK
// on the right, kFormsK on the left), and feeds each comparison to a plain
// select, to a select whose true arm is a constant and to one whose false
// arm is, storing every result in a cell of its own.  That lowers to the
// fused compare+select forms (reg-reg and immediate, with a temp, constant
// true or constant false arm).  The operands and the select arms are action
// data, so they are unknown to the lowering: table "forms" has no entries
// and runs the action with its default action data, [x, y, true arm,
// false arm] (set_forms_operands).  Its "undeclared" action loads from and
// stores to a register array the switch never declares, which lowers to
// the dynamic-register forms; no stage runs it.
//
// The lowering golden (tests/threaded_lowering_golden_test.cpp) pins both
// actions' streams; tests/exec_tier_differential_test.cpp replays the
// forms action on every tier against the reference walker at the boundary
// values forms_boundary_values() lists.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "p4sim/p4sim.hpp"

namespace test_support {

/// The constant the immediate shapes compare against.
inline constexpr p4sim::Word kFormsK = 1000;

/// Cells of register "out": 6 comparisons x 3 shapes x 3 selects.
inline constexpr std::uint32_t kFormsCells = 6 * 3 * 3;

/// 0, 1, kFormsK - 1, kFormsK, kFormsK + 1 and 2^64 - 1.
inline std::vector<p4sim::Word> forms_boundary_values() {
  return {0, 1, kFormsK - 1, kFormsK, kFormsK + 1,
          std::numeric_limits<p4sim::Word>::max()};
}

/// The forms action, storing into register array `out`.
inline p4sim::Program forms_action(p4sim::RegisterId out) {
  using Compare = p4sim::TempId (p4sim::ProgramBuilder::*)(p4sim::TempId,
                                                           p4sim::TempId);
  constexpr std::array<Compare, 6> kCompares = {
      &p4sim::ProgramBuilder::eq, &p4sim::ProgramBuilder::ne,
      &p4sim::ProgramBuilder::lt, &p4sim::ProgramBuilder::gt,
      &p4sim::ProgramBuilder::le, &p4sim::ProgramBuilder::ge};
  p4sim::ProgramBuilder b("forms");
  const p4sim::TempId x = b.param(0);
  const p4sim::TempId y = b.param(1);
  const p4sim::TempId if_true = b.param(2);
  const p4sim::TempId if_false = b.param(3);
  const p4sim::TempId k = b.konst(kFormsK);
  const p4sim::TempId const_true = b.konst(0x7777);
  const p4sim::TempId const_false = b.konst(0x3333);
  std::uint32_t cell = 0;
  for (const Compare compare : kCompares) {
    for (const auto& [lhs, rhs] : {std::array{x, y}, std::array{x, k},
                                   std::array{k, x}}) {
      for (const auto& [t, f] :
           {std::array{if_true, if_false}, std::array{const_true, if_false},
            std::array{if_true, const_false}}) {
        // One statement per op, so the select directly follows its
        // comparison and the pair fuses.
        const p4sim::TempId cond = std::invoke(compare, b, lhs, rhs);
        const p4sim::TempId result = b.select(cond, t, f);
        const p4sim::TempId index = b.konst(cell++);
        b.store_reg(out, index, result);
      }
    }
  }
  return b.take();
}

/// Loads from and stores to register array `undeclared`, which the switch
/// running it must not declare.
inline p4sim::Program undeclared_action(p4sim::RegisterId undeclared) {
  p4sim::ProgramBuilder b("undeclared");
  const p4sim::TempId index = b.konst(0);
  const p4sim::TempId value = b.load_reg(undeclared, index);
  b.store_reg(undeclared, index, value);
  return b.take();
}

/// Sets the forms action's operands: it compares `x` with `y` and with
/// kFormsK, selecting between 11 and 22 or a constant.
inline void set_forms_operands(p4sim::P4Switch& sw, p4sim::Word x,
                               p4sim::Word y) {
  sw.table(0).set_default_action(0, {x, y, 11, 22});
}

/// The forms switch: action 0 is the forms action, run by table 0 (the
/// only stage); action 1, added when `with_undeclared`, is the undeclared
/// action, which the native tier refuses to compile.
inline std::unique_ptr<p4sim::P4Switch> forms_switch(bool with_undeclared) {
  auto sw = std::make_unique<p4sim::P4Switch>("forms");
  const p4sim::RegisterId out = sw->declare_register("out", kFormsCells);
  (void)sw->add_action(forms_action(out));
  if (with_undeclared) (void)sw->add_action(undeclared_action(out + 1));
  sw->add_table_stage(sw->add_table(
      "forms", {p4sim::KeySpec{p4sim::FieldRef::kMetaIngressPort,
                               p4sim::MatchKind::kExact}}));
  set_forms_operands(*sw, 0, 0);
  return sw;
}

}  // namespace test_support
