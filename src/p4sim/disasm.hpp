// Human-readable disassembly of action programs.
//
// Useful for debugging generated Stat4 programs, for documentation, and for
// the resource report: `p4sim::disassemble(program)` prints one line per
// instruction in a P4-action-like pseudo syntax, e.g.
//
//     t3 = t1 + t2
//     t5 = reg stat_xsum[t0]
//     stat_xsum[t0] := t6
//     digest#2(t0, t4, t7) if t9
#pragma once

#include <string>

#include "p4sim/action.hpp"
#include "p4sim/register_file.hpp"

namespace p4sim {

/// One instruction as text.  `registers` (optional) resolves register array
/// names; without it arrays print as reg<N>.
[[nodiscard]] std::string to_string(const Instruction& ins,
                                    const RegisterFile* registers = nullptr);

/// Whole program, one instruction per line, with a header.
[[nodiscard]] std::string disassemble(const Program& program,
                                      const RegisterFile* registers = nullptr);

}  // namespace p4sim
