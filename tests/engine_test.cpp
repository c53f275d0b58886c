// Tests for Stat4Engine: bindings + distributions + checks working together.
#include "stat4/engine.hpp"

#include <gtest/gtest.h>

#include <random>
#include <vector>

namespace stat4 {
namespace {

constexpr std::uint32_t ip(unsigned a, unsigned b, unsigned c, unsigned d) {
  return (a << 24) | (b << 16) | (c << 8) | d;
}

PacketFields pkt_to(std::uint32_t dst, TimeNs ts, std::uint32_t len = 100) {
  PacketFields p;
  p.dst_ip = dst;
  p.timestamp = ts;
  p.length = len;
  p.protocol = 17;
  return p;
}

TEST(Stat4Engine, UnknownDistributionIdThrows) {
  Stat4Engine e;
  EXPECT_THROW((void)e.freq(0), UsageError);
  BindingEntry b;
  b.dist = 3;
  EXPECT_THROW(e.add_binding(b), UsageError);
}

TEST(Stat4Engine, WrongDistributionKindThrows) {
  Stat4Engine e;
  const auto id = e.add_freq_dist(8);
  EXPECT_NO_THROW((void)e.freq(id));
  EXPECT_THROW((void)e.window(id), UsageError);
  EXPECT_THROW((void)e.values(id), UsageError);
}

TEST(Stat4Engine, BindingUpdatesFreqDist) {
  Stat4Engine e;
  const auto id = e.add_freq_dist(256);
  BindingEntry b;
  b.extractor = {Field::kDstIp, 0, 0xFF};
  b.dist = id;
  b.kind = UpdateKind::kFrequencyObserve;
  e.add_binding(b);

  e.process(pkt_to(ip(10, 0, 0, 7), 0));
  e.process(pkt_to(ip(10, 0, 0, 7), 1));
  e.process(pkt_to(ip(10, 0, 0, 9), 2));
  EXPECT_EQ(e.freq(id).frequency(7), 2u);
  EXPECT_EQ(e.freq(id).frequency(9), 1u);
}

TEST(Stat4Engine, NonMatchingPacketsIgnored) {
  Stat4Engine e;
  const auto id = e.add_freq_dist(256);
  BindingEntry b;
  b.match.dst_prefix = Prefix{ip(10, 0, 0, 0), 8};
  b.extractor = {Field::kDstIp, 0, 0xFF};
  b.dist = id;
  e.add_binding(b);

  e.process(pkt_to(ip(11, 0, 0, 7), 0));
  EXPECT_EQ(e.freq(id).total(), 0u);
}

TEST(Stat4Engine, DisabledBindingIgnored) {
  Stat4Engine e;
  const auto id = e.add_freq_dist(256);
  BindingEntry b;
  b.extractor = {Field::kDstIp, 0, 0xFF};
  b.dist = id;
  b.enabled = false;
  e.add_binding(b);
  e.process(pkt_to(ip(10, 0, 0, 7), 0));
  EXPECT_EQ(e.freq(id).total(), 0u);
  EXPECT_EQ(e.active_bindings(), 0u);
}

TEST(Stat4Engine, RemoveAndModifyBinding) {
  Stat4Engine e;
  const auto id = e.add_freq_dist(256);
  BindingEntry b;
  b.extractor = {Field::kDstIp, 0, 0xFF};
  b.dist = id;
  const auto bid = e.add_binding(b);
  e.process(pkt_to(ip(10, 0, 0, 1), 0));
  EXPECT_EQ(e.freq(id).total(), 1u);

  // Modify: now extract the third octet instead (drill-down re-binding).
  b.extractor = {Field::kDstIp, 8, 0xFF};
  e.modify_binding(bid, b);
  e.process(pkt_to(ip(10, 0, 5, 1), 1));
  EXPECT_EQ(e.freq(id).frequency(5), 1u);

  e.remove_binding(bid);
  e.process(pkt_to(ip(10, 0, 5, 1), 2));
  EXPECT_EQ(e.freq(id).total(), 2u) << "removed binding must not fire";
  EXPECT_THROW(e.remove_binding(bid), UsageError);
  EXPECT_THROW(e.modify_binding(bid, b), UsageError);

  // Add after traffic has flowed: the very next packet feeds it.
  e.add_binding(b);
  e.process(pkt_to(ip(10, 0, 7, 1), 3));
  EXPECT_EQ(e.freq(id).total(), 3u) << "added binding must fire";
  EXPECT_EQ(e.freq(id).frequency(7), 1u);
}

TEST(Stat4Engine, IntervalCountBinding) {
  Stat4Engine e;
  const auto id = e.add_interval_window(10, kMillisecond);
  BindingEntry b;
  b.dist = id;
  b.kind = UpdateKind::kIntervalCount;
  e.add_binding(b);
  for (int i = 0; i < 5; ++i) e.process(pkt_to(ip(10, 0, 0, 1), i * 1000));
  EXPECT_EQ(e.window(id).current_count(), 5u);
}

TEST(Stat4Engine, IntervalSumBindingAccumulatesBytes) {
  Stat4Engine e;
  const auto id = e.add_interval_window(10, kMillisecond);
  BindingEntry b;
  b.dist = id;
  b.kind = UpdateKind::kIntervalSum;
  b.extractor = {Field::kLength, 0, ~0ull};
  e.add_binding(b);
  e.process(pkt_to(ip(10, 0, 0, 1), 0, 1500));
  e.process(pkt_to(ip(10, 0, 0, 1), 10, 500));
  EXPECT_EQ(e.window(id).current_count(), 2000u);
}

TEST(Stat4Engine, ValueSampleBinding) {
  Stat4Engine e;
  const auto id = e.add_value_stats();
  BindingEntry b;
  b.dist = id;
  b.kind = UpdateKind::kValueSample;
  b.extractor = {Field::kLength, 0, ~0ull};
  e.add_binding(b);
  e.process(pkt_to(ip(10, 0, 0, 1), 0, 100));
  e.process(pkt_to(ip(10, 0, 0, 1), 1, 300));
  EXPECT_EQ(e.values(id).n(), 2u);
  EXPECT_EQ(e.values(id).xsum(), 400);
}

TEST(Stat4Engine, SpikeCheckRaisesSingleLatchedAlert) {
  Stat4Engine e;
  const auto id = e.add_interval_window(100, 8 * kMillisecond);
  e.enable_spike_check(id);
  BindingEntry b;
  b.dist = id;
  b.kind = UpdateKind::kIntervalCount;
  e.add_binding(b);

  std::vector<Alert> alerts;
  e.set_alert_sink([&](const Alert& a) { alerts.push_back(a); });

  std::mt19937_64 rng(1);
  TimeNs t = 0;
  const TimeNs len = 8 * kMillisecond;
  // 50 steady intervals of ~200 packets.
  for (int i = 0; i < 50; ++i) {
    const int n = 195 + static_cast<int>(rng() % 10);
    for (int j = 0; j < n; ++j) e.process(pkt_to(ip(10, 1, 2, 3), t + j));
    t += len;
  }
  ASSERT_TRUE(alerts.empty()) << "steady traffic must not alert";

  // Spike: 2000 packets in one interval — and keep spiking afterwards.
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 2000; ++j) e.process(pkt_to(ip(10, 1, 2, 3), t + j));
    t += len;
  }
  e.advance_time(t);
  ASSERT_EQ(alerts.size(), 1u) << "alert must latch until re-armed";
  EXPECT_EQ(alerts[0].kind, AlertKind::kRateSpike);
  EXPECT_EQ(alerts[0].dist, id);
  EXPECT_EQ(alerts[0].value, 2000u);

  e.rearm(id);
  for (int j = 0; j < 2000; ++j) e.process(pkt_to(ip(10, 1, 2, 3), t + j));
  t += len;
  e.advance_time(t);
  EXPECT_EQ(alerts.size(), 2u) << "re-arming enables the next alert";
}

TEST(Stat4Engine, ImbalanceCheckFindsHotSubnet) {
  Stat4Engine e;
  const auto id = e.add_freq_dist(256);
  e.enable_imbalance_check(id, /*min_total=*/64);
  BindingEntry b;
  b.match.dst_prefix = Prefix{ip(10, 0, 0, 0), 8};
  b.extractor = {Field::kDstIp, 8, 0xFF};  // /24 index
  b.dist = id;
  e.add_binding(b);

  std::vector<Alert> alerts;
  e.set_alert_sink([&](const Alert& a) { alerts.push_back(a); });

  // Balanced traffic across six /24s (10.0.1.0 .. 10.0.6.0).
  std::mt19937_64 rng(2);
  TimeNs t = 0;
  for (int i = 0; i < 1200; ++i) {
    const unsigned subnet = 1 + static_cast<unsigned>(rng() % 6);
    e.process(pkt_to(ip(10, 0, subnet, 1 + static_cast<unsigned>(rng() % 36)), t++));
  }
  ASSERT_TRUE(alerts.empty());

  // Subnet 5 becomes hot.
  for (int i = 0; i < 4000 && alerts.empty(); ++i) {
    e.process(pkt_to(ip(10, 0, 5, 6), t++));
  }
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, AlertKind::kFrequencyImbalance);
  EXPECT_EQ(alerts[0].value, 5u) << "alert identifies the hot /24";
}

TEST(Stat4Engine, ImbalanceRespectsMinTotal) {
  Stat4Engine e;
  const auto id = e.add_freq_dist(16);
  e.enable_imbalance_check(id, /*min_total=*/1000);
  BindingEntry b;
  b.extractor = {Field::kDstIp, 0, 0xF};
  b.dist = id;
  e.add_binding(b);
  std::uint64_t alerts = 0;
  e.set_alert_sink([&](const Alert&) { ++alerts; });
  for (int i = 0; i < 500; ++i) e.process(pkt_to(ip(10, 0, 0, 3), i));
  EXPECT_EQ(alerts, 0u) << "below min_total no check runs";
}

TEST(Stat4Engine, TwoBindingsOnePacket) {
  // The case study's resource analysis: "at most two rules with independent
  // actions match each packet" — rate for the /8 plus per-/24 tracking.
  Stat4Engine e;
  const auto rate = e.add_interval_window(100, 8 * kMillisecond);
  const auto per24 = e.add_freq_dist(256);

  BindingEntry b1;
  b1.match.dst_prefix = Prefix{ip(10, 0, 0, 0), 8};
  b1.dist = rate;
  b1.kind = UpdateKind::kIntervalCount;
  e.add_binding(b1);

  BindingEntry b2;
  b2.match.dst_prefix = Prefix{ip(10, 0, 0, 0), 8};
  b2.extractor = {Field::kDstIp, 8, 0xFF};
  b2.dist = per24;
  e.add_binding(b2);
  EXPECT_EQ(e.active_bindings(), 2u);

  e.process(pkt_to(ip(10, 0, 5, 6), 0));
  EXPECT_EQ(e.window(rate).current_count(), 1u);
  EXPECT_EQ(e.freq(per24).frequency(5), 1u);
}

TEST(Stat4Engine, AlertSequenceNumbersIncrease) {
  Stat4Engine e;
  const auto id = e.add_freq_dist(8);
  e.enable_imbalance_check(id, 8);
  BindingEntry b;
  b.extractor = {Field::kDstIp, 0, 0x7};
  b.dist = id;
  e.add_binding(b);
  std::vector<std::uint64_t> seqs;
  e.set_alert_sink([&](const Alert& a) { seqs.push_back(a.seq); });

  auto flood = [&](unsigned host, TimeNs base) {
    for (int i = 0; i < 64; ++i) {
      e.process(pkt_to(ip(10, 0, 0, host), base + i));
    }
  };
  for (unsigned h = 0; h < 8; ++h) flood(h, h * 100);  // balanced
  flood(3, 1000);
  flood(3, 2000);
  e.rearm(id);
  flood(3, 3000);
  ASSERT_GE(seqs.size(), 2u);
  for (std::size_t i = 1; i < seqs.size(); ++i) {
    EXPECT_EQ(seqs[i], seqs[i - 1] + 1);
  }
}

// An alert sink may reconfigure the engine while a packet is being applied.
// The rest of that packet's walk must not touch the binding or distribution
// storage the sink reallocated, must skip a binding the sink removed, and
// must leave what the sink added to the next packet.

/// Two bindings walked in this order: `hot` (an imbalance check over the
/// destination's low three bits) and `tail` (counts every packet).
struct MidWalkFixture {
  Stat4Engine e;
  DistId hot = e.add_freq_dist(8);
  DistId tail = e.add_freq_dist(8);
  BindingId tail_binding = 0;

  MidWalkFixture() {
    e.enable_imbalance_check(hot, 8);
    BindingEntry b;
    b.extractor = {Field::kDstIp, 0, 0x7};
    b.dist = hot;
    e.add_binding(b);
    b.extractor = {Field::kConstOne, 0, 0x7};
    b.dist = tail;
    tail_binding = e.add_binding(b);
  }

  std::uint64_t sent = 0;

  void send(unsigned host) {
    e.process(pkt_to(ip(10, 0, 0, host), static_cast<TimeNs>(sent++)));
  }

  /// Balanced traffic over eight hosts, then host 3 until the first alert.
  void run_until_alert() {
    for (unsigned h = 0; h < 8; ++h) {
      for (int i = 0; i < 64; ++i) send(h);
    }
    EXPECT_EQ(e.alerts_emitted(), 0u);
    while (e.alerts_emitted() == 0 && sent < 4096) send(3);
    EXPECT_EQ(e.alerts_emitted(), 1u);
  }
};

TEST(Stat4Engine, BindingsAddedBySinkFeedFromNextPacket) {
  MidWalkFixture f;
  const DistId added = f.e.add_freq_dist(8);
  f.e.set_alert_sink([&](const Alert&) {
    BindingEntry b;
    b.extractor = {Field::kConstOne, 0, 0x7};
    b.dist = added;
    for (int i = 0; i < 64; ++i) f.e.add_binding(b);
  });
  f.run_until_alert();
  EXPECT_EQ(f.e.freq(f.tail).total(), f.sent)
      << "the alert packet's walk ran on";
  EXPECT_EQ(f.e.freq(added).total(), 0u);
  f.send(1);
  EXPECT_EQ(f.e.freq(added).total(), 64u) << "added bindings feed from here";
}

TEST(Stat4Engine, DistributionAddedBySinkMidWalk) {
  MidWalkFixture f;
  f.e.set_alert_sink([&](const Alert&) { (void)f.e.add_freq_dist(8); });
  f.run_until_alert();
  EXPECT_EQ(f.e.distribution_count(), 3u);
  EXPECT_EQ(f.e.freq(f.tail).total(), f.sent);
}

TEST(Stat4Engine, BindingRemovedBySinkMidWalkIsSkipped) {
  MidWalkFixture f;
  f.e.set_alert_sink(
      [&](const Alert&) { f.e.remove_binding(f.tail_binding); });
  f.run_until_alert();
  EXPECT_EQ(f.e.freq(f.tail).total(), f.sent - 1)
      << "the removed binding missed the alert packet";
  f.send(1);
  EXPECT_EQ(f.e.freq(f.tail).total(), f.sent - 2);
}

TEST(Stat4Engine, DistributionsAddedBySinkDuringAdvanceTime) {
  // The spike fires while advance_time() closes the first window; the
  // window after it must still be advanced.
  Stat4Engine e;
  const auto rate = e.add_interval_window(16, kMillisecond);
  const auto later = e.add_interval_window(16, kMillisecond);
  e.enable_spike_check(rate, 4);
  for (const DistId id : {rate, later}) {
    BindingEntry b;
    b.dist = id;
    b.kind = UpdateKind::kIntervalCount;
    e.add_binding(b);
  }
  e.set_alert_sink([&](const Alert&) {
    for (int i = 0; i < 64; ++i) (void)e.add_value_stats();
  });
  TimeNs t = 0;
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 9 + i % 3; ++j) {
      e.process(pkt_to(ip(10, 0, 0, 1), t + j));
    }
    t += kMillisecond;
  }
  for (int j = 0; j < 1000; ++j) e.process(pkt_to(ip(10, 0, 0, 1), t + j));
  ASSERT_EQ(e.alerts_emitted(), 0u);
  e.advance_time(t + kMillisecond);
  ASSERT_EQ(e.alerts_emitted(), 1u);
  EXPECT_EQ(e.distribution_count(), 66u);
  EXPECT_EQ(e.window(later).completed(), e.window(rate).completed());
  EXPECT_EQ(e.window(later).completed(), 9u);
}

}  // namespace
}  // namespace stat4
