#include "p4sim/table.hpp"

#include <algorithm>
#include <stdexcept>

namespace p4sim {

MatchActionTable::MatchActionTable(std::string name,
                                   std::vector<KeySpec> key_layout,
                                   std::size_t max_entries)
    : name_(std::move(name)),
      key_layout_(std::move(key_layout)),
      max_entries_(max_entries) {}

EntryHandle MatchActionTable::insert(TableEntry entry) {
  if (entry.key.size() != key_layout_.size()) {
    throw std::invalid_argument("p4sim: entry key arity mismatch in table " +
                                name_);
  }
  if (entry_count() >= max_entries_) {
    throw std::length_error("p4sim: table " + name_ + " is full");
  }
  Stored s;
  s.entry = std::move(entry);
  s.handle = next_handle_++;
  s.live = true;
  compiled_dirty_ = true;
  entries_.push_back(std::move(s));
  return entries_.back().handle;
}

void MatchActionTable::modify(EntryHandle handle, TableEntry entry) {
  if (entry.key.size() != key_layout_.size()) {
    throw std::invalid_argument("p4sim: entry key arity mismatch in table " +
                                name_);
  }
  for (auto& s : entries_) {
    if (s.live && s.handle == handle) {
      s.entry = std::move(entry);
      compiled_dirty_ = true;
      return;
    }
  }
  throw std::out_of_range("p4sim: unknown entry handle in table " + name_);
}

void MatchActionTable::remove(EntryHandle handle) {
  for (auto& s : entries_) {
    if (s.live && s.handle == handle) {
      s.live = false;
      compiled_dirty_ = true;
      return;
    }
  }
  throw std::out_of_range("p4sim: unknown entry handle in table " + name_);
}

std::vector<const TableEntry*> MatchActionTable::live_entries() const {
  std::vector<const TableEntry*> out;
  out.reserve(entries_.size());
  for (const auto& s : entries_) {
    if (s.live) out.push_back(&s.entry);
  }
  return out;
}

void MatchActionTable::set_default_action(ActionId action,
                                          std::vector<Word> action_data) {
  default_action_ = action;
  default_data_ = std::move(action_data);
  compiled_dirty_ = true;
}

std::size_t MatchActionTable::entry_count() const noexcept {
  std::size_t n = 0;
  for (const auto& s : entries_) {
    if (s.live) ++n;
  }
  return n;
}

bool MatchActionTable::entry_matches(const TableEntry& e,
                                     const PacketView& view) const {
  for (std::size_t i = 0; i < key_layout_.size(); ++i) {
    const Word field = view.get(key_layout_[i].field);
    const KeyMatch& km = e.key[i];
    switch (key_layout_[i].kind) {
      case MatchKind::kExact:
        if (field != km.value) return false;
        break;
      case MatchKind::kLpm: {
        if (km.prefix_len == 0) break;  // matches everything
        const unsigned bits = field_info(key_layout_[i].field).width_bits;
        const unsigned plen = km.prefix_len > bits
                                  ? bits
                                  : static_cast<unsigned>(km.prefix_len);
        const Word full = bits == 64 ? ~Word{0} : ((Word{1} << bits) - 1);
        const Word mask = (full >> (bits - plen)) << (bits - plen);
        if ((field & mask) != (km.value & mask)) return false;
        break;
      }
      case MatchKind::kTernary:
        if ((field & km.mask) != (km.value & km.mask)) return false;
        break;
    }
  }
  return true;
}

MatchResult MatchActionTable::lookup_linear(const PacketView& view) const {
  const Stored* best = nullptr;
  std::uint32_t best_plen = 0;
  for (const auto& s : entries_) {
    if (!s.live || !entry_matches(s.entry, view)) continue;
    if (best == nullptr) {
      best = &s;
      // For LPM preference track the total prefix length of the entry.
      best_plen = 0;
      for (const auto& km : s.entry.key) best_plen += km.prefix_len;
      continue;
    }
    // Priority first (ternary semantics), then longest prefix, then first
    // inserted — matching bmv2's resolution order closely enough for the
    // programs we run.
    std::uint32_t plen = 0;
    for (const auto& km : s.entry.key) plen += km.prefix_len;
    if (s.entry.priority > best->entry.priority ||
        (s.entry.priority == best->entry.priority && plen > best_plen)) {
      best = &s;
      best_plen = plen;
    }
  }
  MatchResult r;
  if (best != nullptr) {
    r.action = best->entry.action;
    r.action_data = best->entry.action_data;
    r.hit = true;
    r.handle = best->handle;
  } else {
    r.action = default_action_;
    r.action_data = default_data_;
    r.hit = false;
  }
  return r;
}

void MatchActionTable::compile() const {
  // Flatten live entries best-first so the compiled lookup can stop at the
  // first match: stable_sort on (priority desc, total prefix length desc)
  // keeps insertion order inside equal keys — exactly the resolution order
  // lookup_linear() implements with its running-best scan.
  struct Ranked {
    const Stored* s;
    std::uint32_t plen;
  };
  std::vector<Ranked> ranked;
  ranked.reserve(entries_.size());
  for (const auto& s : entries_) {
    if (!s.live) continue;
    std::uint32_t plen = 0;
    for (const auto& km : s.entry.key) plen += km.prefix_len;
    ranked.push_back({&s, plen});
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const Ranked& a, const Ranked& b) {
                     if (a.s->entry.priority != b.s->entry.priority) {
                       return a.s->entry.priority > b.s->entry.priority;
                     }
                     return a.plen > b.plen;
                   });

  compiled_.clear();
  compiled_.reserve(ranked.size());
  for (const Ranked& r : ranked) {
    CompiledEntry ce;
    ce.action = r.s->entry.action;
    ce.action_data = &r.s->entry.action_data;
    ce.handle = r.s->handle;
    ce.keys.reserve(key_layout_.size());
    for (std::size_t i = 0; i < key_layout_.size(); ++i) {
      const KeyMatch& km = r.s->entry.key[i];
      CompiledKey ck;
      ck.field = key_layout_[i].field;
      switch (key_layout_[i].kind) {
        case MatchKind::kExact:
          ck.mask = ~Word{0};
          ck.value = km.value;
          break;
        case MatchKind::kLpm: {
          if (km.prefix_len == 0) {
            ck.mask = 0;  // matches everything
            ck.value = 0;
            break;
          }
          const unsigned bits = field_info(ck.field).width_bits;
          const unsigned plen = km.prefix_len > bits
                                    ? bits
                                    : static_cast<unsigned>(km.prefix_len);
          const Word full = bits == 64 ? ~Word{0} : ((Word{1} << bits) - 1);
          ck.mask = (full >> (bits - plen)) << (bits - plen);
          ck.value = km.value & ck.mask;
          break;
        }
        case MatchKind::kTernary:
          ck.mask = km.mask;
          ck.value = km.value & km.mask;
          break;
      }
      ce.keys.push_back(ck);
    }
    compiled_.push_back(std::move(ce));
  }
  compiled_dirty_ = false;
  ++compile_count_;
}

}  // namespace p4sim
