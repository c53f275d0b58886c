#include "p4sim/dependency.hpp"

#include <algorithm>
#include <map>
#include <set>

namespace p4sim {

namespace {

/// Which packet fields a program writes (for match dependencies).
std::set<FieldRef> fields_written(const Program& p) {
  std::set<FieldRef> out;
  for (const auto& ins : p.code) {
    if (ins.op == Op::kStoreField) out.insert(ins.field);
  }
  return out;
}

std::set<FieldRef> fields_read_by_key(const MatchActionTable& t) {
  std::set<FieldRef> out;
  for (const auto& k : t.key_layout()) out.insert(k.field);
  return out;
}

}  // namespace

ProgramAnalysis analyze_program(const Program& program) {
  ProgramAnalysis a;
  a.name = program.name;
  a.instructions = program.code.size();

  // depth[i]: length of the longest dependency chain ending at instruction i.
  // Temps create RAW edges; register arrays serialize conservatively
  // (any access depends on the previous access to the same array), which is
  // exactly how a hardware compiler must place them in stages.
  std::vector<std::size_t> depth(program.code.size(), 1);
  std::map<TempId, std::size_t> temp_def_depth;
  std::map<RegisterId, std::size_t> reg_access_depth;
  std::vector<TempId> reads;
  std::vector<TempId> writes;

  for (std::size_t i = 0; i < program.code.size(); ++i) {
    const Instruction& ins = program.code[i];
    const OpInfo& info = op_info(ins.op);
    std::size_t d = 1;
    reads.clear();
    writes.clear();
    instruction_temps(ins, reads, writes);
    for (const TempId r : reads) {
      const auto it = temp_def_depth.find(r);
      if (it != temp_def_depth.end()) d = std::max(d, it->second + 1);
    }
    if (info.effect == OpEffect::kRegister) {
      const auto it = reg_access_depth.find(ins.reg);
      if (it != reg_access_depth.end()) d = std::max(d, it->second + 1);
      ++(ins.op == Op::kLoadReg ? a.register_reads : a.register_writes);
      reg_access_depth[ins.reg] = d;
    }
    if (ins.op == Op::kMul) a.uses_mul = true;
    if (info.writes_dst) temp_def_depth[ins.dst] = d;
    depth[i] = d;
    a.longest_chain = std::max(a.longest_chain, d);
  }
  return a;
}

SwitchAnalysis analyze_switch(const P4Switch& sw) {
  SwitchAnalysis s;
  s.switch_name = sw.name();
  s.tables = sw.table_count();
  s.register_arrays = sw.registers().array_count();
  s.state_bytes = sw.registers().total_state_bytes();
  s.pipeline_stages = sw.pipeline().size();

  for (std::size_t i = 0; i < sw.table_count(); ++i) {
    s.table_entries += sw.table(static_cast<TableId>(i)).entry_count();
  }

  for (std::size_t i = 0; i < sw.action_count(); ++i) {
    auto pa = analyze_program(sw.action(static_cast<ActionId>(i)));
    if (pa.longest_chain > s.longest_action_chain) {
      s.longest_action_chain = pa.longest_chain;
      s.longest_chain_action = pa.name;
    }
    s.programs.push_back(std::move(pa));
  }

  // Match dependencies between pipeline stages: stage j (table or guard)
  // reading a field that an earlier stage's action may have written.
  const auto& stages = sw.pipeline();
  for (std::size_t j = 0; j < stages.size(); ++j) {
    // Fields stage j matches/guards on.
    std::set<FieldRef> read;
    if (stages[j].guard) read.insert(stages[j].guard->field);
    if (stages[j].table) {
      const auto key = fields_read_by_key(sw.table(*stages[j].table));
      read.insert(key.begin(), key.end());
    }
    if (read.empty()) continue;

    bool depends = false;
    for (std::size_t k = 0; k < j && !depends; ++k) {
      std::set<FieldRef> written;
      if (stages[k].action) {
        written = fields_written(sw.action(*stages[k].action));
      } else if (stages[k].table) {
        // Any action reachable from the table could run; union over all
        // registered actions is conservative but we only know the table's
        // installed entries' actions — approximate with all actions.
        for (std::size_t ai = 0; ai < sw.action_count(); ++ai) {
          const auto w = fields_written(sw.action(static_cast<ActionId>(ai)));
          written.insert(w.begin(), w.end());
        }
      }
      for (const FieldRef f : read) {
        if (written.count(f) != 0) {
          depends = true;
          break;
        }
      }
    }
    if (depends) ++s.match_dependencies;
  }
  return s;
}

}  // namespace p4sim
