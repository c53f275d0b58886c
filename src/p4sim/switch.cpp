#include "p4sim/switch.hpp"

#include <algorithm>
#include <stdexcept>

#include "p4sim/jit/transpiler.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

namespace p4sim {
namespace {

// Host callbacks the native tier crosses back through for packet fields and
// digests: validity gating and Digest construction stay in parser.cpp /
// this file, so generated code can never drift from interpreter semantics.
std::uint64_t jit_load_field_cb(void* view, std::uint32_t field) {
  return static_cast<PacketView*>(view)->get(static_cast<FieldRef>(field));
}

void jit_store_field_cb(void* view, std::uint32_t field, std::uint64_t value) {
  static_cast<PacketView*>(view)->set(static_cast<FieldRef>(field), value);
}

struct JitDigestSink {
  std::vector<Digest>* digests = nullptr;
  stat4::TimeNs now = 0;
};

void jit_emit_digest_cb(void* sink, std::uint32_t id, std::uint64_t w0,
                        std::uint64_t w1, std::uint64_t w2) {
  auto* s = static_cast<JitDigestSink*>(sink);
  Digest d;
  d.id = id;
  d.payload = {w0, w1, w2};
  d.time = s->now;
  s->digests->push_back(d);
}

}  // namespace

P4Switch::P4Switch(std::string name, AluProfile profile)
    : name_(std::move(name)), profile_(profile) {}

RegisterId P4Switch::declare_register(std::string reg_name, std::uint32_t size,
                                      std::uint32_t width_bits) {
  // Compiled tiers hold raw RegisterWindow pointers and the native tier
  // refuses programs over undeclared arrays, so a new declaration must
  // re-lower the pipeline.
  ++config_gen_;
  return registers_.declare(std::move(reg_name), size, width_bits);
}

ActionId P4Switch::add_action(Program program) {
  program.validate(profile_);
  ++config_gen_;
  actions_.push_back(std::move(program));
  return static_cast<ActionId>(actions_.size() - 1);
}

TableId P4Switch::add_table(std::string table_name, std::vector<KeySpec> key,
                            std::size_t max_entries) {
  ++config_gen_;
  tables_.emplace_back(std::move(table_name), std::move(key), max_entries);
  return static_cast<TableId>(tables_.size() - 1);
}

void P4Switch::add_table_stage(TableId table_id, std::optional<Guard> guard) {
  if (table_id >= tables_.size()) {
    throw std::out_of_range("p4sim: unknown table in pipeline");
  }
  Stage s;
  s.guard = guard;
  s.table = table_id;
  ++config_gen_;
  pipeline_.push_back(s);
}

void P4Switch::add_program_stage(ActionId action_id,
                                 std::optional<Guard> guard) {
  if (action_id >= actions_.size()) {
    throw std::out_of_range("p4sim: unknown action in pipeline");
  }
  Stage s;
  s.guard = guard;
  s.action = action_id;
  ++config_gen_;
  pipeline_.push_back(s);
}

void P4Switch::replace_action(ActionId id, Program program) {
  if (id >= actions_.size()) {
    throw std::out_of_range("p4sim: unknown action id");
  }
  program.validate(profile_);
  // Bump BEFORE installing: the compiled dispatch vector holds raw pointers
  // into actions_ and a scratch_words_ prefix sized for the old bodies, so
  // the next process() must recompile even if this throws nowhere.
  ++config_gen_;
  actions_[id] = std::move(program);
}

void P4Switch::set_pipeline(std::vector<Stage> stages) {
  for (const Stage& s : stages) {
    if (s.table && *s.table >= tables_.size()) {
      throw std::out_of_range("p4sim: unknown table in pipeline");
    }
    if (s.action && *s.action >= actions_.size()) {
      throw std::out_of_range("p4sim: unknown action in pipeline");
    }
  }
  ++config_gen_;
  pipeline_ = std::move(stages);
}

MatchActionTable& P4Switch::table(TableId id) {
  if (id >= tables_.size()) {
    throw std::out_of_range("p4sim: unknown table id");
  }
  return tables_[id];
}

const MatchActionTable& P4Switch::table(TableId id) const {
  if (id >= tables_.size()) {
    throw std::out_of_range("p4sim: unknown table id");
  }
  return tables_[id];
}

const Program& P4Switch::action(ActionId id) const {
  if (id >= actions_.size()) {
    throw std::out_of_range("p4sim: unknown action id");
  }
  return actions_[id];
}

void P4Switch::compile_pipeline() {
  // The stall a configuration write costs the next packet.
  STAT4_TELEMETRY_ONLY(
      static telemetry::Counter& relowers =
          telemetry::MetricsRegistry::global().counter("p4sim.relowers");
      static telemetry::Histogram& relower_ns =
          telemetry::MetricsRegistry::global().histogram("p4sim.relower_ns");
      relowers.add(); const telemetry::SpanTimer relower_span(relower_ns);)
  ++pipeline_compiles_;
  compiled_.clear();
  compiled_.reserve(pipeline_.size());
  invariant_guards_.clear();
  for (const Stage& stage : pipeline_) {
    if (!stage.table && !stage.action) continue;  // nothing to run
    CompiledStage cs;
    if (stage.guard) {
      cs.guarded = true;
      cs.guard = *stage.guard;
      // Guards over non-writable fields (validity bits, ingress metadata)
      // are packet-invariant: no action can change them mid-pipeline, so
      // run_compiled evaluates each distinct guard once per packet.
      if (!field_info(cs.guard.field).writable) {
        std::size_t slot = invariant_guards_.size();
        for (std::size_t i = 0; i < invariant_guards_.size(); ++i) {
          const Guard& g = invariant_guards_[i];
          if (g.field == cs.guard.field && g.cmp == cs.guard.cmp &&
              g.value == cs.guard.value) {
            slot = i;
            break;
          }
        }
        if (slot == invariant_guards_.size() &&
            slot < kMaxInvariantGuards) {
          invariant_guards_.push_back(cs.guard);
        }
        if (slot < invariant_guards_.size()) {
          cs.guard_slot = static_cast<std::int8_t>(slot);
        }
      }
    }
    if (stage.table) {
      cs.table = &tables_[*stage.table];
    } else {
      cs.action = *stage.action;
    }
    compiled_.push_back(cs);
  }
  // The scratch context is zeroed per packet only up to the highest temp
  // ANY installed action reads before writing.  Every other temp is written
  // before its first read, except where the threaded tier skips a guarded
  // run: the skipped temps keep an earlier packet's values, and only ops
  // whose results do not matter for this packet read them.
  std::bitset<kTempCount> observable;
  for (const Program& prog : actions_) {
    observable |= read_before_write(prog);
  }
  scratch_words_ = 0;
  for (std::size_t id = 0; id < kTempCount; ++id) {
    if (observable[id]) scratch_words_ = id + 1;
  }
  if (!temps_) temps_ = std::make_unique<Temps>();

  // Lower the installed actions to the selected execution tier.  The
  // threaded lowering happens for the native tier too: it is the
  // degradation target when the native compile cannot be used.
  active_tier_ = exec_tier_;
  threaded_actions_.clear();
  reg_windows_.clear();
  jit_unit_.reset();
  if (exec_tier_ != ExecTier::kReference) {
    threaded_actions_.reserve(actions_.size());
    for (const Program& prog : actions_) {
      threaded_actions_.push_back(
          threaded_compile(prog, registers_, observable));
    }
  }
  if (exec_tier_ == ExecTier::kNative) {
    const jit::TranspileResult transpiled =
        jit::transpile(actions_, registers_, name_);
    if (transpiled.ok) {
      const jit::CompileOutcome outcome = jit::compile_unit(transpiled.source);
      if (outcome.unit && outcome.unit->actions().size() == actions_.size()) {
        jit_unit_ = outcome.unit;
        reg_windows_.reserve(registers_.array_count());
        for (std::size_t r = 0; r < registers_.array_count(); ++r) {
          const RegisterWindow w =
              registers_.window(static_cast<RegisterId>(r));
          reg_windows_.push_back(jit::RegWindow{w.base, w.size, w.mask});
        }
        // Everything except the per-packet view, digest sink and action
        // data is fixed for the lifetime of this compiled pipeline.
        jit_ctx_ = jit::Context{};
        jit_ctx_.temps = temps_->words.data();
        jit_ctx_.load_field = &jit_load_field_cb;
        jit_ctx_.store_field = &jit_store_field_cb;
        jit_ctx_.regs = reg_windows_.data();
        jit_ctx_.emit_digest = &jit_emit_digest_cb;
      }
    }
    if (!jit_unit_) {
      active_tier_ = ExecTier::kThreaded;
      STAT4_TELEMETRY_ONLY(telemetry::MetricsRegistry::global()
                               .counter("p4sim.jit.fallbacks")
                               .add();)
    }
  }
  compiled_gen_ = config_gen_;
}

template <typename Invoke>
void P4Switch::run_compiled(const PacketView& view, Invoke&& invoke) {
  std::fill_n(temps_->words.data(), scratch_words_, Word{0});
  bool inv[kMaxInvariantGuards];
  for (std::size_t i = 0; i < invariant_guards_.size(); ++i) {
    inv[i] = invariant_guards_[i].holds(view);
  }
  for (const CompiledStage& cs : compiled_) {
    if (cs.guarded) {
      const bool ok = cs.guard_slot >= 0
                          ? inv[static_cast<std::size_t>(cs.guard_slot)]
                          : cs.guard.holds(view);
      if (!ok) continue;
    }
    if (cs.table == nullptr) {
      invoke(cs.action, nullptr, std::size_t{0});
      continue;
    }
    if (stage_is_noop(*cs.table)) continue;
    const MatchResult m = cs.table->lookup(view);
    if (m.action >= actions_.size()) {
      throw std::out_of_range("p4sim: unknown action id");
    }
    invoke(m.action, m.action_data.data(), m.action_data.size());
  }
}

void P4Switch::run_pipeline_reference(PacketView& view, SwitchOutput& out,
                                      stat4::TimeNs now) {
  // The original interpreter: a fresh, fully zeroed context per packet and
  // linear table scans.  ExecTier::kReference: the differential baseline of
  // every other tier.
  ExecutionContext ctx;
  ctx.view = &view;
  ctx.registers = &registers_;
  ctx.digests = &out.digests;
  ctx.now = now;

  for (const Stage& stage : pipeline_) {
    if (stage.guard && !stage.guard->holds(view)) continue;
    if (stage.table) {
      const MatchResult m = tables_[*stage.table].lookup_linear(view);
      const Program& prog = actions_.at(m.action);
      ctx.action_data = m.action_data;
      execute(prog, ctx);
    } else if (stage.action) {
      ctx.action_data = {};
      execute(actions_[*stage.action], ctx);
    }
  }
}

SwitchOutput P4Switch::process(Packet pkt) {
  SwitchOutput out;
  process_into(std::move(pkt), out);
  return out;
}

void P4Switch::process_into(Packet&& pkt, SwitchOutput& out) {
  out.packets.clear();
  out.digests.clear();
  out.dropped = false;
  ++packets_processed_;

  ParsedPacket parsed = parse(pkt);
  PacketView view;
  view.parsed = &parsed;
  view.meta_ingress_port = pkt.ingress_port;
  view.meta_ingress_ts = static_cast<std::uint64_t>(pkt.ingress_ts);
  view.meta_packet_length = pkt.size();
  view.meta_egress_spec = 0;  // default drop, like bmv2's mark_to_drop

  if (compiled_gen_ != config_gen_) compile_pipeline();
  const stat4::TimeNs now = pkt.ingress_ts;
  switch (active_tier_) {
    case ExecTier::kThreaded: {
      ThreadedState st;
      st.temps = temps_->words.data();
      st.view = &view;
      st.registers = &registers_;
      st.digests = &out.digests;
      st.now = now;
      run_compiled(view, [&](ActionId a, const Word* data, std::size_t len) {
        st.action_data = data;
        st.action_data_len = len;
        threaded_execute(threaded_actions_[a], st);
      });
      break;
    }
    case ExecTier::kNative: {
      JitDigestSink sink{&out.digests, now};
      jit_ctx_.view = &view;
      jit_ctx_.digest_sink = &sink;
      const std::vector<jit::ActionFn>& fns = jit_unit_->actions();
      run_compiled(view, [&](ActionId a, const Word* data, std::size_t len) {
        jit_ctx_.action_data = data;
        jit_ctx_.action_data_len = len;
        fns[a](&jit_ctx_);
      });
      break;
    }
    case ExecTier::kReference:
      run_pipeline_reference(view, out, now);
      break;
  }

  digests_emitted_ += out.digests.size();

  if (view.meta_egress_spec == 0) {
    out.dropped = true;
    return;
  }
  // The deparser only runs when some action stored to a header field; a
  // purely observing pipeline forwards the buffer byte-for-byte.
  if (view.header_dirty) deparse(parsed, pkt);
  const auto port = static_cast<PortId>(view.meta_egress_spec - 1);
  out.packets.emplace_back(port, std::move(pkt));
}

}  // namespace p4sim
