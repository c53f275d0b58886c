// Match-action tables with exact / LPM / ternary matching.
//
// Tables are populated at runtime by the controller (runtime.hpp), exactly
// like bmv2's table_add / table_modify CLI that the paper's drill-down
// controller drives.  Stat4's binding tables (Figure 4) are ordinary tables
// whose actions update statistics registers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "p4sim/action.hpp"
#include "p4sim/parser.hpp"

namespace p4sim {

using TableId = std::uint32_t;
using ActionId = std::uint32_t;
using EntryHandle = std::uint64_t;

enum class MatchKind : std::uint8_t {
  kExact,
  kLpm,      ///< longest-prefix match on the field's low `prefix_len` bits
  kTernary,  ///< value/mask with priority
};

/// One component of a table's match key.
struct KeySpec {
  FieldRef field = FieldRef::kIpv4Dst;
  MatchKind kind = MatchKind::kExact;
};

/// One component of an entry's match value.
struct KeyMatch {
  Word value = 0;
  Word mask = ~Word{0};          ///< ternary only
  std::uint8_t prefix_len = 32;  ///< lpm only (bits of `value`, MSB-first
                                 ///< within the field's natural width)
  std::uint8_t field_bits = 32;  ///< natural width of the field in bits
};

struct TableEntry {
  std::vector<KeyMatch> key;
  ActionId action = 0;
  std::vector<Word> action_data;
  std::int32_t priority = 0;  ///< higher wins among ternary candidates
};

struct MatchResult {
  ActionId action = 0;
  std::span<const Word> action_data;
  bool hit = false;
  EntryHandle handle = 0;
};

class MatchActionTable {
 public:
  MatchActionTable(std::string name, std::vector<KeySpec> key_layout,
                   std::size_t max_entries = 1024);

  /// Insert an entry; returns a stable handle for modify/remove.
  EntryHandle insert(TableEntry entry);
  void modify(EntryHandle handle, TableEntry entry);
  void remove(EntryHandle handle);

  void set_default_action(ActionId action, std::vector<Word> action_data);

  /// Look up a packet.  On miss, returns the default action with hit=false.
  ///
  /// Uses the compiled entry cache: live entries are flattened into a dense
  /// vector sorted best-first (priority desc, total prefix length desc,
  /// insertion order asc) with every per-key match precomputed to one
  /// uniform (field & mask) == value test — so the lookup is a scan that
  /// stops at the FIRST match instead of scoring every entry, and the LPM
  /// mask arithmetic runs once per table write instead of once per packet.
  /// Any mutation (insert/modify/remove/set_default_action) marks the cache
  /// dirty; the next lookup rebuilds it.  Result is bit-identical to
  /// lookup_linear() — tests/p4sim_fastpath_test.cpp enforces this across
  /// mid-stream table writes.
  [[nodiscard]] MatchResult lookup(const PacketView& view) const;

  /// True when every possible lookup currently returns the default action:
  /// the table has no live entries.  Inline and cheap (one dirty-flag
  /// branch once compiled) — the pipeline loop uses it to skip guaranteed
  /// no-op stages per packet, so the answer tracks runtime table mutation.
  [[nodiscard]] bool default_only() const {
    if (compiled_dirty_) compile();
    return compiled_.empty();
  }

  /// The reference lookup: the original full scoring scan over live
  /// entries, no caching.  Kept as the differential baseline for the
  /// compiled path (and used by P4Switch's ExecTier::kReference walker).
  [[nodiscard]] MatchResult lookup_linear(const PacketView& view) const;

  /// How many times the compiled entry cache has been (re)built — lets
  /// tests assert that table writes invalidate the cache.
  [[nodiscard]] std::uint64_t compile_count() const noexcept {
    return compile_count_;
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const std::vector<KeySpec>& key_layout() const noexcept {
    return key_layout_;
  }
  [[nodiscard]] std::size_t entry_count() const noexcept;
  [[nodiscard]] std::size_t max_entries() const noexcept {
    return max_entries_;
  }

  // Introspection for the static verifier (src/analysis/): which actions a
  // table can dispatch to and with what action data.
  /// Every live entry, in insertion order.
  [[nodiscard]] std::vector<const TableEntry*> live_entries() const;
  [[nodiscard]] ActionId default_action() const noexcept {
    return default_action_;
  }
  [[nodiscard]] const std::vector<Word>& default_action_data() const noexcept {
    return default_data_;
  }

 private:
  struct Stored {
    TableEntry entry;
    EntryHandle handle = 0;
    bool live = false;
  };

  /// One key of a compiled entry: every MatchKind lowered to the uniform
  /// test (view.get(field) & mask) == value.  Exact: mask = ~0; LPM: the
  /// prefix mask, computed once here instead of per packet; ternary: the
  /// entry mask.  value is pre-masked.
  struct CompiledKey {
    FieldRef field = FieldRef::kIpv4Dst;
    Word mask = 0;
    Word value = 0;
  };

  struct CompiledEntry {
    std::vector<CompiledKey> keys;
    ActionId action = 0;
    const std::vector<Word>* action_data = nullptr;
    EntryHandle handle = 0;
  };

  [[nodiscard]] bool entry_matches(const TableEntry& e,
                                   const PacketView& view) const;
  void compile() const;

  std::string name_;
  std::vector<KeySpec> key_layout_;
  std::size_t max_entries_;
  std::vector<Stored> entries_;
  EntryHandle next_handle_ = 1;
  ActionId default_action_ = 0;
  std::vector<Word> default_data_;
  // Compiled lookup cache (see lookup()).  Mutable: rebuilt lazily from
  // const lookup(); the table is externally synchronized like all switch
  // state (one worker thread per switch lane).
  mutable std::vector<CompiledEntry> compiled_;
  mutable bool compiled_dirty_ = true;
  mutable std::uint64_t compile_count_ = 0;
};

// Inline: one call per table stage per packet.  The scan itself is a few
// compare-and-mask tests over the compiled entries; keeping it visible to
// the pipeline loop removes the per-stage call and lets the compiler fold
// the span/result plumbing.
inline MatchResult MatchActionTable::lookup(const PacketView& view) const {
  if (compiled_dirty_) compile();
  for (const CompiledEntry& ce : compiled_) {
    bool match = true;
    for (const CompiledKey& ck : ce.keys) {
      if ((view.get(ck.field) & ck.mask) != ck.value) {
        match = false;
        break;
      }
    }
    if (match) {
      MatchResult r;
      r.action = ce.action;
      r.action_data = *ce.action_data;
      r.hit = true;
      r.handle = ce.handle;
      return r;
    }
  }
  MatchResult r;
  r.action = default_action_;
  r.action_data = default_data_;
  r.hit = false;
  return r;
}

}  // namespace p4sim
