#include "stat4p4/apps.hpp"

namespace stat4p4 {

using p4sim::FieldRef;
using p4sim::Guard;
using p4sim::KeyMatch;
using p4sim::KeySpec;
using p4sim::MatchKind;
using p4sim::TableEntry;
using p4sim::Word;

EchoApp::EchoApp(Stat4Config cfg, p4sim::AluProfile profile)
    : cfg_(cfg), sw_("stat4-echo", profile) {
  regs_ = declare_registers(sw_, cfg_);
  const BuildOptions opt = BuildOptions::for_profile(profile);
  const auto echo = sw_.add_action(build_echo(regs_, cfg_, opt));
  // Echo frames carry EtherType 0x88B5; anything else is dropped (the
  // default egress_spec of 0).
  Guard g;
  g.field = FieldRef::kEchoValid;
  g.cmp = Guard::Cmp::kNe;
  g.value = 0;
  sw_.add_program_stage(echo, g);
}

MonitorApp::MonitorApp(Stat4Config cfg, p4sim::AluProfile profile)
    : cfg_(cfg), sw_("stat4-monitor", profile) {
  regs_ = declare_registers(sw_, cfg_);
  const BuildOptions opt = BuildOptions::for_profile(profile);

  drop_action_ = sw_.add_action(build_drop());
  noop_action_ = sw_.add_action(build_noop());
  forward_action_ = sw_.add_action(build_forward());
  window_action_ = sw_.add_action(build_window_tick(regs_, cfg_, opt));
  track_freq_action_ = sw_.add_action(
      build_track_freq(regs_, cfg_, FieldRef::kIpv4Dst, opt));
  track_sparse_action_ = sw_.add_action(
      build_track_sparse(regs_, cfg_, FieldRef::kIpv4Dst, opt));
  track_value_action_ = sw_.add_action(
      build_track_value(regs_, cfg_, FieldRef::kMetaPacketLength, opt));
  track_entropy_action_ = sw_.add_action(
      build_track_entropy(regs_, cfg_, FieldRef::kIpv4Dst, opt));
  mitigate_action_ =
      sw_.add_action(build_mitigate(regs_, cfg_, FieldRef::kIpv4Dst));
  reroute_action_ = sw_.add_action(build_reroute(regs_, cfg_));

  forward_table_ = sw_.add_table(
      "ipv4_forward", {KeySpec{FieldRef::kIpv4Dst, MatchKind::kLpm}});
  sw_.table(forward_table_).set_default_action(drop_action_, {});

  rate_table_ = sw_.add_table(
      "rate_binding", {KeySpec{FieldRef::kIpv4Dst, MatchKind::kLpm}});
  sw_.table(rate_table_).set_default_action(noop_action_, {});

  binding_table_ = sw_.add_table(
      "freq_binding", {KeySpec{FieldRef::kIpv4Dst, MatchKind::kLpm},
                       KeySpec{FieldRef::kIpv4Proto, MatchKind::kTernary},
                       KeySpec{FieldRef::kTcpFlags, MatchKind::kTernary}});
  sw_.table(binding_table_).set_default_action(noop_action_, {});

  Guard ipv4;
  ipv4.field = FieldRef::kIpv4Valid;
  ipv4.cmp = Guard::Cmp::kNe;
  ipv4.value = 0;
  mitigation_table_ = sw_.add_table(
      "mitigation", {KeySpec{FieldRef::kIpv4Dst, MatchKind::kLpm},
                     KeySpec{FieldRef::kIpv4Proto, MatchKind::kTernary},
                     KeySpec{FieldRef::kTcpFlags, MatchKind::kTernary}});
  sw_.table(mitigation_table_).set_default_action(noop_action_, {});

  sw_.add_table_stage(forward_table_, ipv4);
  sw_.add_table_stage(rate_table_, ipv4);
  sw_.add_table_stage(binding_table_, ipv4);
  sw_.add_table_stage(mitigation_table_, ipv4);
}

p4sim::EntryHandle MonitorApp::install_forward(std::uint32_t prefix,
                                               std::uint8_t len,
                                               p4sim::PortId port) {
  TableEntry e;
  KeyMatch km;
  km.value = prefix;
  km.prefix_len = len;
  e.key.push_back(km);
  e.action = forward_action_;
  e.action_data = {static_cast<Word>(port) + 1};
  return sw_.table(forward_table_).insert(std::move(e));
}

p4sim::EntryHandle MonitorApp::install_rate_monitor(
    std::uint32_t prefix, std::uint8_t len, std::uint32_t dist,
    std::uint64_t interval_ns, std::uint64_t window_size,
    std::uint64_t min_history, bool stall_check) {
  if (dist >= cfg_.counter_num) {
    throw stat4::UsageError("stat4p4: distribution id out of range");
  }
  if (window_size == 0 || window_size > cfg_.counter_size) {
    throw stat4::UsageError(
        "stat4p4: window size must be in [1, counter_size]");
  }
  TableEntry e;
  KeyMatch km;
  km.value = prefix;
  km.prefix_len = len;
  e.key.push_back(km);
  e.action = window_action_;
  e.action_data.assign(kAdWordCount, 0);
  e.action_data[kAdDist] = dist;
  e.action_data[kAdIntervalLen] = interval_ns;
  e.action_data[kAdMinHistory] = min_history;
  e.action_data[kAdWindowBase] =
      static_cast<Word>(dist) * cfg_.counter_size;
  e.action_data[kAdWindowSize] = window_size;
  e.action_data[kAdStallCheck] = stall_check ? 1 : 0;
  return sw_.table(rate_table_).insert(std::move(e));
}

p4sim::TableEntry MonitorApp::make_freq_entry(
    const FreqBindingSpec& spec) const {
  if (spec.dist >= cfg_.counter_num) {
    throw stat4::UsageError("stat4p4: distribution id out of range");
  }
  if (spec.percentile == 0 || spec.percentile >= 100) {
    throw stat4::UsageError("stat4p4: percentile must be in (0,100)");
  }
  TableEntry e;
  KeyMatch dst;
  dst.value = spec.dst_prefix;
  dst.prefix_len = spec.dst_prefix_len;
  e.key.push_back(dst);

  KeyMatch proto;
  proto.value = spec.protocol.value_or(0);
  proto.mask = spec.protocol.has_value() ? 0xFF : 0x00;
  e.key.push_back(proto);

  KeyMatch flags;
  flags.value = spec.flag_value;
  flags.mask = spec.flag_mask;
  e.key.push_back(flags);

  e.priority = spec.priority;
  e.action = track_freq_action_;
  e.action_data.assign(kAdWordCount, 0);
  e.action_data[kAdDist] = spec.dist;
  e.action_data[kAdShift] = spec.shift;
  e.action_data[kAdMask] = spec.mask;
  e.action_data[kAdBase] = static_cast<Word>(spec.dist) * cfg_.counter_size;
  e.action_data[kAdCheck] = spec.check ? 1 : 0;
  e.action_data[kAdMinTotal] = spec.min_total;
  e.action_data[kAdOffset] = spec.offset;
  e.action_data[kAdMedian] = spec.median ? 1 : 0;
  e.action_data[kAdWeightLow] = spec.percentile;
  e.action_data[kAdWeightHigh] = 100 - spec.percentile;
  return e;
}

p4sim::EntryHandle MonitorApp::install_freq_binding(
    const FreqBindingSpec& spec) {
  return sw_.table(binding_table_).insert(make_freq_entry(spec));
}

p4sim::EntryHandle MonitorApp::install_entropy_binding(
    const FreqBindingSpec& spec, std::uint64_t entropy_theta_fp,
    bool entropy_above) {
  if (spec.median) {
    throw stat4::UsageError(
        "stat4p4: entropy bindings cannot track percentiles");
  }
  p4sim::TableEntry e = make_freq_entry(spec);
  e.action = track_entropy_action_;
  e.action_data[kAdTheta] = entropy_theta_fp;
  e.action_data[kAdEntropyMode] = entropy_above ? 1 : 0;
  return sw_.table(binding_table_).insert(std::move(e));
}

p4sim::EntryHandle MonitorApp::install_value_binding(
    const FreqBindingSpec& spec) {
  if (spec.median) {
    throw stat4::UsageError(
        "stat4p4: value bindings cannot track percentiles");
  }
  p4sim::TableEntry e = make_freq_entry(spec);
  e.action = track_value_action_;
  return sw_.table(binding_table_).insert(std::move(e));
}

p4sim::EntryHandle MonitorApp::install_mitigation(
    const FreqBindingSpec& spec) {
  p4sim::TableEntry e = make_freq_entry(spec);
  e.action = mitigate_action_;
  // Mitigation only needs the extractor + distribution words.
  return sw_.table(mitigation_table_).insert(std::move(e));
}

p4sim::EntryHandle MonitorApp::install_reroute(const FreqBindingSpec& spec,
                                               p4sim::PortId alt_port) {
  p4sim::TableEntry e = make_freq_entry(spec);
  e.action = reroute_action_;
  e.action_data[kAdAltPort] = static_cast<Word>(alt_port) + 1;
  return sw_.table(mitigation_table_).insert(std::move(e));
}

p4sim::EntryHandle MonitorApp::install_sparse_binding(
    const FreqBindingSpec& spec) {
  if (spec.median) {
    throw stat4::UsageError(
        "stat4p4: sparse bindings cannot track percentiles");
  }
  p4sim::TableEntry e = make_freq_entry(spec);
  e.action = track_sparse_action_;
  return sw_.table(binding_table_).insert(std::move(e));
}

void MonitorApp::modify_freq_binding(p4sim::EntryHandle handle,
                                     const FreqBindingSpec& spec) {
  sw_.table(binding_table_).modify(handle, make_freq_entry(spec));
}

void MonitorApp::remove_binding(p4sim::EntryHandle handle) {
  sw_.table(binding_table_).remove(handle);
}

void MonitorApp::rearm(std::uint32_t dist) {
  sw_.registers().write(regs_.alerted, dist, 0);
}

void MonitorApp::reset_distribution(std::uint32_t dist) {
  auto& rf = sw_.registers();
  for (const auto reg :
       {regs_.n, regs_.xsum, regs_.xsumsq, regs_.var, regs_.med_pos,
        regs_.med_low, regs_.med_high, regs_.med_init, regs_.win_anchored,
        regs_.win_start,
        regs_.win_head, regs_.win_count, regs_.cur_count, regs_.alerted}) {
    rf.write(reg, dist, 0);
  }
  for (const auto reg : {regs_.sparse_overflow, regs_.hot_value}) {
    rf.write(reg, dist, 0);
  }
  const Word base = static_cast<Word>(dist) * cfg_.counter_size;
  for (Word i = 0; i < cfg_.counter_size; ++i) {
    rf.write(regs_.counters, base + i, 0);
    rf.write(regs_.sparse_keys, base + i, 0);
    rf.write(regs_.sparse_counts, base + i, 0);
  }
}

}  // namespace stat4p4
