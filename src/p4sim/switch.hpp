// P4Switch: a bmv2-like software switch.
//
// A switch is configured once with registers, actions (straight-line
// programs), tables and a pipeline (an ordered list of optionally guarded
// stages) — the moral equivalent of loading a compiled P4 program.  After
// configuration the controller may only touch table entries and read
// registers; the data path is process(): parse -> pipeline -> deparse ->
// forward, emitting digests (alerts) along the way.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "p4sim/action.hpp"
#include "p4sim/exec_tier.hpp"
#include "p4sim/jit/engine.hpp"
#include "p4sim/packet.hpp"
#include "p4sim/parser.hpp"
#include "p4sim/register_file.hpp"
#include "p4sim/table.hpp"
#include "p4sim/threaded.hpp"

namespace p4sim {

/// Guard on a pipeline stage: apply the stage iff `field <op> value`.
/// Mirrors P4 control-flow conditions like `if (hdr.ipv4.isValid())`.
struct Guard {
  FieldRef field = FieldRef::kIpv4Valid;
  enum class Cmp : std::uint8_t { kEq, kNe } cmp = Cmp::kNe;
  Word value = 0;

  [[nodiscard]] bool holds(const PacketView& view) const noexcept {
    const Word f = view.get(field);
    return cmp == Cmp::kEq ? f == value : f != value;
  }
};

/// What comes out of the switch for one input packet.
struct SwitchOutput {
  std::vector<std::pair<PortId, Packet>> packets;
  std::vector<Digest> digests;
  bool dropped = false;
};

class P4Switch {
 public:
  explicit P4Switch(std::string name, AluProfile profile = AluProfile::bmv2());

  // ---- program configuration (compile time) -----------------------------
  RegisterId declare_register(std::string reg_name, std::uint32_t size,
                              std::uint32_t width_bits = 64);
  /// Registers an action; the program is validated against the ALU profile.
  ActionId add_action(Program program);
  TableId add_table(std::string table_name, std::vector<KeySpec> key,
                    std::size_t max_entries = 1024);

  /// Appends a stage applying `table`; on hit/miss the resolved action runs.
  void add_table_stage(TableId table, std::optional<Guard> guard = {});
  /// Appends a stage running `action` unconditionally (guarded direct code,
  /// like statements in the ingress control body outside any table).
  void add_program_stage(ActionId action, std::optional<Guard> guard = {});

  struct Stage {
    std::optional<Guard> guard;
    std::optional<TableId> table;    // table stage
    std::optional<ActionId> action;  // direct-program stage
  };

  // ---- IR mutation (the optimizer's rewrite hooks) ------------------------
  /// Replaces a registered action's program in place — how the dataflow
  /// optimizer installs a rewritten body.  The new program is validated
  /// against the ALU profile and config_gen_ is bumped so the compiled
  /// pipeline rebuilds its dispatch vector and scratch sizing (a stale
  /// scratch_words_ over a rewritten program would read beyond the zeroed
  /// prefix).
  void replace_action(ActionId id, Program program);
  /// Replaces the whole pipeline (stage packing).  Every referenced table /
  /// action id must already exist.
  void set_pipeline(std::vector<Stage> stages);
  /// How many times the pipeline has been compiled (compile_pipeline) — the
  /// observable that regression tests use to prove in-place rewrites
  /// invalidate the compiled pipeline.
  [[nodiscard]] std::uint64_t pipeline_compile_count() const noexcept {
    return pipeline_compiles_;
  }

  // ---- data path ----------------------------------------------------------
  [[nodiscard]] SwitchOutput process(Packet pkt);

  /// process() into a caller-owned output whose vectors are reused across
  /// packets (the batched drain loops call this to keep allocations off the
  /// per-packet path).  `out` is cleared first.  A forwarded packet is moved
  /// into `out.packets`; a dropped one is left in `pkt`, so a caller that
  /// owns the buffer (a FleetRunner ring slot) keeps it either way.
  void process_into(Packet&& pkt, SwitchOutput& out);

  /// Which execution tier runs the pipeline (see exec_tier.hpp).  Every
  /// tier but kReference shares one compiled walker: pipeline stages are
  /// flattened into a dispatch vector of table pointers and action ids, tables
  /// use their compiled entry caches, and action programs run over
  /// persistent scratch temps zeroed only up to the highest temp any
  /// installed action reads before writing (instead of zeroing the full
  /// 16KB PHV pool per packet).  kReference runs the
  /// original walker instead: a fresh zeroed context per packet and linear
  /// table scans — bit-identical output, kept as the differential baseline
  /// (tests/p4sim_fastpath_test.cpp).  Switching tiers bumps config_gen_ so
  /// the next packet re-lowers the pipeline.  New switches start on
  /// default_exec_tier() (STAT4_EXEC_TIER env or threaded).
  void set_exec_tier(ExecTier tier) noexcept {
    if (exec_tier_ != tier) {
      exec_tier_ = tier;
      ++config_gen_;
    }
  }
  [[nodiscard]] ExecTier exec_tier() const noexcept { return exec_tier_; }
  /// The tier the compiled pipeline actually runs on — differs from
  /// exec_tier() when the native tier degraded to threaded (no host
  /// compiler, dlopen failure, unsupported op; the degradation records a
  /// p4sim.jit.fallbacks telemetry count).  Meaningful once a packet has
  /// been processed since the last tier change (lowering is lazy).
  [[nodiscard]] ExecTier active_tier() const noexcept { return active_tier_; }

  // ---- controller-facing state --------------------------------------------
  [[nodiscard]] MatchActionTable& table(TableId id);
  [[nodiscard]] const MatchActionTable& table(TableId id) const;
  [[nodiscard]] RegisterFile& registers() noexcept { return registers_; }
  [[nodiscard]] const RegisterFile& registers() const noexcept {
    return registers_;
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const AluProfile& profile() const noexcept { return profile_; }
  [[nodiscard]] std::uint64_t packets_processed() const noexcept {
    return packets_processed_;
  }
  [[nodiscard]] std::uint64_t digests_emitted() const noexcept {
    return digests_emitted_;
  }

  // Introspection for the dependency / resource analyzer.
  [[nodiscard]] std::size_t action_count() const noexcept {
    return actions_.size();
  }
  [[nodiscard]] const Program& action(ActionId id) const;
  [[nodiscard]] std::size_t table_count() const noexcept {
    return tables_.size();
  }

  [[nodiscard]] const std::vector<Stage>& pipeline() const noexcept {
    return pipeline_;
  }

 private:
  /// One pre-resolved pipeline stage: a raw pointer into tables_ or the
  /// direct-program stage's action id, the guard flattened out of
  /// std::optional.  Valid until the next configuration change (config_gen_
  /// bump).
  struct CompiledStage {
    Guard guard{};
    bool guarded = false;
    /// Index into invariant_guards_ when the guard reads a non-writable
    /// field (validity bits, ingress metadata): such guards cannot change
    /// while a packet traverses the pipeline, so run_compiled evaluates
    /// each distinct one once per packet instead of once per stage.
    /// -1 when the guard field is writable and must be re-evaluated.
    std::int8_t guard_slot = -1;
    MatchActionTable* table = nullptr;  ///< table stage when non-null
    ActionId action = 0;  ///< the direct-program stage's action otherwise
  };

  /// Cap on distinct packet-invariant guards tracked per pipeline; stages
  /// beyond it just re-evaluate (correct, merely slower).
  static constexpr std::size_t kMaxInvariantGuards = 16;

  /// A table stage with no live entries whose default action's program is
  /// empty cannot affect the packet, the registers, or the digest stream —
  /// run_compiled skips its lookup+dispatch.  Checked per packet because
  /// entries and the default action mutate at runtime without a
  /// config_gen_ bump.  An out-of-range default ActionId falls through to
  /// the lookup so the unknown-action throw is preserved.
  [[nodiscard]] bool stage_is_noop(const MatchActionTable& t) const {
    if (!t.default_only()) return false;
    const ActionId d = t.default_action();
    return d < actions_.size() && actions_[d].code.empty();
  }

  void compile_pipeline();
  /// The compiled walker every tier but kReference runs: zeroes the scratch
  /// prefix, evaluates the invariant guards once and writable guards per
  /// stage, skips no-op stages, looks tables up through their compiled
  /// caches and throws std::out_of_range on an unknown action id.  The tier
  /// runs each action body through `invoke(action, data, length)`.
  template <typename Invoke>
  void run_compiled(const PacketView& view, Invoke&& invoke);
  void run_pipeline_reference(PacketView& view, SwitchOutput& out,
                              stat4::TimeNs now);

  std::string name_;
  AluProfile profile_;
  RegisterFile registers_;
  std::vector<Program> actions_;
  std::vector<MatchActionTable> tables_;
  std::vector<Stage> pipeline_;
  std::uint64_t packets_processed_ = 0;
  std::uint64_t digests_emitted_ = 0;
  // Compiled pipeline state (see set_exec_tier).
  std::uint64_t config_gen_ = 1;    ///< bumped by any program/pipeline write
  std::uint64_t compiled_gen_ = 0;  ///< config_gen_ the dispatch vector matches
  std::uint64_t pipeline_compiles_ = 0;  ///< compile_pipeline() invocations
  std::vector<CompiledStage> compiled_;
  /// Distinct guards over non-writable fields, deduplicated across stages;
  /// run_compiled evaluates these once per packet (see
  /// CompiledStage::guard_slot).
  std::vector<Guard> invariant_guards_;
  /// Zeroed prefix of the scratch temps per packet: 1 + the highest temp
  /// any installed action reads before writing.  Every other temp is
  /// written before its first read, except the temps of a guarded run the
  /// threaded tier skips: those keep an earlier packet's values, which only
  /// ops whose results this packet does not use read.
  std::size_t scratch_words_ = 0;
  /// The persistent PHV scratch.  It starts on a cache line and fills
  /// whole lines, so no other allocation shares a line with it (held in a
  /// plain 16 KB std::vector instead, it cost bench/e2e's two-lane
  /// `steady` workload ~15% of its packet rate).
  struct alignas(64) Temps {
    std::array<Word, kTempCount> words{};
  };
  std::unique_ptr<Temps> temps_;
  // Execution-tier state, rebuilt by compile_pipeline() (see exec_tier.hpp).
  ExecTier exec_tier_ = default_exec_tier();
  ExecTier active_tier_ = exec_tier_;
  std::vector<ThreadedProgram> threaded_actions_;
  std::vector<jit::RegWindow> reg_windows_;
  std::shared_ptr<const jit::CompiledUnit> jit_unit_;
  /// Pre-filled native-tier ABI context: the compile-constant fields
  /// (temps/callbacks/register windows) are set once by compile_pipeline();
  /// the native invoker only patches the per-packet view, sink and action
  /// data.
  jit::Context jit_ctx_;
};

}  // namespace p4sim
