#include "sketch/apps.hpp"

#include <algorithm>
#include <span>
#include <string>

#include "stat4/types.hpp"

namespace sketch {

using p4sim::FieldRef;
using p4sim::Guard;
using p4sim::KeyMatch;
using p4sim::KeySpec;
using p4sim::MatchKind;
using p4sim::Program;
using p4sim::ProgramBuilder;
using p4sim::RegisterId;
using p4sim::TableEntry;
using p4sim::Word;

namespace {

Program build_forward() {
  ProgramBuilder b("forward");
  b.store_field(FieldRef::kMetaEgressSpec, b.param(0));
  return b.take();
}

Program build_drop() {
  ProgramBuilder b("drop");
  b.store_field(FieldRef::kMetaEgressSpec, b.konst(0));
  return b.take();
}

Program build_noop() {
  ProgramBuilder b("noop");
  (void)b.konst(0);
  return b.take();
}

/// Copies register array `reg` into a sketch row of `width` cells at `row`.
void copy_row(const p4sim::RegisterFile& rf, RegisterId reg, Word* row,
              std::uint64_t width) {
  const std::span<const Word> cells = rf.cells(reg);
  std::copy_n(cells.begin(), std::min<std::uint64_t>(width, cells.size()),
              row);
}

/// Zeroes the first `width` cells of register array `reg`.
void zero_row(p4sim::RegisterFile& rf, RegisterId reg, std::uint64_t width) {
  const p4sim::RegisterWindow w = rf.window(reg);
  std::fill_n(w.base, std::min(width, w.size), Word{0});
}

void declare_rows(p4sim::P4Switch& sw, const char* prefix, std::uint64_t size,
                  std::array<RegisterId, kSketchDepth>& out) {
  for (unsigned r = 0; r < kSketchDepth; ++r) {
    out[r] = sw.declare_register(prefix + std::to_string(r),
                                 static_cast<std::uint32_t>(size));
  }
}

}  // namespace

SketchApp::SketchApp(SketchKind kind, SketchConfig cfg,
                     p4sim::AluProfile profile)
    : kind_(kind), cfg_(cfg), sw_("stat4-sketch", profile) {
  switch (kind_) {
    case SketchKind::kCountMin:
      declare_rows(sw_, "cm_row", cfg_.width, regs_.cm_row);
      regs_.hh_seen = sw_.declare_register(
          "hh_seen", static_cast<std::uint32_t>(cfg_.width));
      break;
    case SketchKind::kCountSketch:
      declare_rows(sw_, "cs_cur_plus", cfg_.width, regs_.cs_cur_plus);
      declare_rows(sw_, "cs_cur_minus", cfg_.width, regs_.cs_cur_minus);
      declare_rows(sw_, "cs_prev_plus", cfg_.width, regs_.cs_prev_plus);
      declare_rows(sw_, "cs_prev_minus", cfg_.width, regs_.cs_prev_minus);
      declare_rows(sw_, "cs_epoch", cfg_.width, regs_.cs_epoch);
      regs_.ch_reported = sw_.declare_register(
          "ch_reported", static_cast<std::uint32_t>(cfg_.width));
      break;
    case SketchKind::kInvertible:
      declare_rows(sw_, "inv_count", cfg_.width, regs_.inv_count);
      declare_rows(sw_, "inv_keysum", cfg_.width, regs_.inv_keysum);
      declare_rows(sw_, "inv_checksum", cfg_.width, regs_.inv_checksum);
      break;
  }
  regs_.total = sw_.declare_register("sk_total", 1);

  drop_action_ = sw_.add_action(build_drop());
  noop_action_ = sw_.add_action(build_noop());
  forward_action_ = sw_.add_action(build_forward());
  switch (kind_) {
    case SketchKind::kCountMin:
      update_action_ = sw_.add_action(
          build_count_min_update(regs_, cfg_, FieldRef::kIpv4Dst));
      break;
    case SketchKind::kCountSketch:
      update_action_ = sw_.add_action(
          build_count_sketch_update(regs_, cfg_, FieldRef::kIpv4Dst));
      break;
    case SketchKind::kInvertible:
      update_action_ = sw_.add_action(
          build_invertible_update(regs_, cfg_, FieldRef::kIpv4Dst));
      break;
  }

  forward_table_ = sw_.add_table(
      "ipv4_forward", {KeySpec{FieldRef::kIpv4Dst, MatchKind::kLpm}});
  sw_.table(forward_table_).set_default_action(drop_action_, {});

  block_table_ = sw_.add_table(
      "sketch_block", {KeySpec{FieldRef::kIpv4Dst, MatchKind::kExact}});
  sw_.table(block_table_).set_default_action(noop_action_, {});

  binding_table_ = sw_.add_table(
      "sketch_binding", {KeySpec{FieldRef::kIpv4Dst, MatchKind::kLpm}});
  sw_.table(binding_table_).set_default_action(noop_action_, {});

  Guard ipv4;
  ipv4.field = FieldRef::kIpv4Valid;
  ipv4.cmp = Guard::Cmp::kNe;
  ipv4.value = 0;
  sw_.add_table_stage(forward_table_, ipv4);
  sw_.add_table_stage(block_table_, ipv4);  // later stage: a block wins
  sw_.add_table_stage(binding_table_, ipv4);
}

p4sim::EntryHandle SketchApp::install_forward(std::uint32_t prefix,
                                              std::uint8_t len,
                                              p4sim::PortId port) {
  TableEntry e;
  KeyMatch km;
  km.value = prefix;
  km.prefix_len = len;
  km.field_bits = 32;
  e.key.push_back(km);
  e.action = forward_action_;
  e.action_data = {static_cast<Word>(port) + 1};
  return sw_.table(forward_table_).insert(std::move(e));
}

p4sim::EntryHandle SketchApp::install_sketch(std::uint32_t prefix,
                                             std::uint8_t len,
                                             std::uint8_t shift,
                                             std::uint64_t mask,
                                             std::uint64_t threshold) {
  TableEntry e;
  KeyMatch km;
  km.value = prefix;
  km.prefix_len = len;
  km.field_bits = 32;
  e.key.push_back(km);
  e.action = update_action_;
  e.action_data.assign(kSkAdWordCount, 0);
  e.action_data[kSkAdShift] = shift;
  e.action_data[kSkAdMask] = mask;
  e.action_data[kSkAdThreshold] = threshold;
  return sw_.table(binding_table_).insert(std::move(e));
}

p4sim::EntryHandle SketchApp::install_drop_exact(std::uint32_t key) {
  TableEntry e;
  KeyMatch km;
  km.value = key;
  km.field_bits = 32;
  e.key.push_back(km);
  e.action = drop_action_;
  return sw_.table(block_table_).insert(std::move(e));
}

void SketchApp::rearm() {
  if (kind_ == SketchKind::kInvertible) return;  // nothing latches
  p4sim::RegisterFile& rf = sw_.registers();
  const RegisterId latch =
      kind_ == SketchKind::kCountMin ? regs_.hh_seen : regs_.ch_reported;
  zero_row(rf, latch, cfg_.width);
}

void SketchApp::require_kind(SketchKind kind, const char* what) const {
  if (kind_ != kind) {
    throw stat4::UsageError(std::string("sketch: ") + what +
                            " needs a different sketch kind");
  }
}

CountMinSketch SketchApp::snapshot_count_min() const {
  require_kind(SketchKind::kCountMin, "snapshot_count_min");
  CountMinSketch out(kSketchDepth, cfg_.width);
  const p4sim::RegisterFile& rf = sw_.registers();
  for (unsigned r = 0; r < kSketchDepth; ++r) {
    copy_row(rf, regs_.cm_row[r], &out.cell(r, 0), cfg_.width);
  }
  return out;
}

CountSketch SketchApp::snapshot_count_sketch_current() const {
  require_kind(SketchKind::kCountSketch, "snapshot_count_sketch");
  CountSketch out(kSketchDepth, cfg_.width);
  const p4sim::RegisterFile& rf = sw_.registers();
  for (unsigned r = 0; r < kSketchDepth; ++r) {
    copy_row(rf, regs_.cs_cur_plus[r], &out.plus(r, 0), cfg_.width);
    copy_row(rf, regs_.cs_cur_minus[r], &out.minus(r, 0), cfg_.width);
  }
  return out;
}

CountSketch SketchApp::snapshot_count_sketch_previous() const {
  require_kind(SketchKind::kCountSketch, "snapshot_count_sketch");
  CountSketch out(kSketchDepth, cfg_.width);
  const p4sim::RegisterFile& rf = sw_.registers();
  for (unsigned r = 0; r < kSketchDepth; ++r) {
    copy_row(rf, regs_.cs_prev_plus[r], &out.plus(r, 0), cfg_.width);
    copy_row(rf, regs_.cs_prev_minus[r], &out.minus(r, 0), cfg_.width);
  }
  return out;
}

InvertibleSketch SketchApp::snapshot_invertible() const {
  require_kind(SketchKind::kInvertible, "snapshot_invertible");
  InvertibleSketch out(kSketchDepth, cfg_.width);
  const p4sim::RegisterFile& rf = sw_.registers();
  for (unsigned r = 0; r < kSketchDepth; ++r) {
    copy_row(rf, regs_.inv_count[r], &out.count(r, 0), cfg_.width);
    copy_row(rf, regs_.inv_keysum[r], &out.keysum(r, 0), cfg_.width);
    copy_row(rf, regs_.inv_checksum[r], &out.checksum(r, 0), cfg_.width);
  }
  return out;
}

void SketchApp::clear_sketch() {
  p4sim::RegisterFile& rf = sw_.registers();
  const auto clear_row = [&](const std::array<RegisterId, kSketchDepth>& rows) {
    for (const RegisterId reg : rows) zero_row(rf, reg, cfg_.width);
  };
  switch (kind_) {
    case SketchKind::kCountMin:
      clear_row(regs_.cm_row);
      zero_row(rf, regs_.hh_seen, cfg_.width);
      break;
    case SketchKind::kCountSketch:
      clear_row(regs_.cs_cur_plus);
      clear_row(regs_.cs_cur_minus);
      clear_row(regs_.cs_prev_plus);
      clear_row(regs_.cs_prev_minus);
      clear_row(regs_.cs_epoch);
      zero_row(rf, regs_.ch_reported, cfg_.width);
      break;
    case SketchKind::kInvertible:
      clear_row(regs_.inv_count);
      clear_row(regs_.inv_keysum);
      clear_row(regs_.inv_checksum);
      break;
  }
}

}  // namespace sketch
