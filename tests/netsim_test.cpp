// Tests for the discrete-event simulator, network wiring, control channel,
// and traffic generation.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "netsim/netsim.hpp"
#include "p4sim/craft.hpp"
#include "stat4p4/apps.hpp"

namespace netsim {
namespace {

using p4sim::ipv4;
using stat4::kMillisecond;
using stat4::kSecond;

// ------------------------------------------------------------------ simulator

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, EqualTimesRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, CallbacksCanScheduleMore) {
  Simulator sim;
  int count = 0;
  std::function<void()> tick = [&]() {
    if (++count < 5) sim.schedule_after(10, tick);
  };
  sim.schedule_at(0, tick);
  sim.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.now(), 40);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int count = 0;
  std::function<void()> tick = [&]() {
    ++count;
    sim.schedule_after(10, tick);
  };
  sim.schedule_at(0, tick);
  sim.run_until(35);
  EXPECT_EQ(count, 4);  // t = 0, 10, 20, 30
  EXPECT_EQ(sim.now(), 35);
  EXPECT_FALSE(sim.empty());
}

TEST(Simulator, RunMovesEventsNeverCopies) {
  // The queue moves each event out before running it, so a stateful
  // callback (one owning a Packet, say) is never duplicated on the way.
  struct CountingCallable {
    int* copies;
    int* calls;
    CountingCallable(int* c, int* k) : copies(c), calls(k) {}
    CountingCallable(const CountingCallable& o)
        : copies(o.copies), calls(o.calls) {
      ++*copies;
    }
    CountingCallable(CountingCallable&&) noexcept = default;
    CountingCallable& operator=(const CountingCallable&) = delete;
    CountingCallable& operator=(CountingCallable&&) = delete;
    ~CountingCallable() = default;
    void operator()() const { ++*calls; }
  };
  Simulator sim;
  int copies = 0;
  int calls = 0;
  // Out-of-order times so the heap has to reorder what it holds.
  for (int i = 0; i < 8; ++i) {
    sim.schedule_at((i * 5) % 8, CountingCallable(&copies, &calls));
  }
  const int copies_when_queued = copies;
  EXPECT_EQ(sim.run(), 8u);
  EXPECT_EQ(calls, 8);
  EXPECT_EQ(copies, copies_when_queued) << "run() copied a queued event";
}

TEST(Simulator, PastSchedulingRejected) {
  Simulator sim;
  sim.schedule_at(100, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(50, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_after(-1, [] {}), std::invalid_argument);
}

// -------------------------------------------------------------------- network

TEST(Network, LinkDeliversWithDelay) {
  Simulator sim;
  Network net(sim);
  const auto a = net.add_node(std::make_unique<HostNode>());
  const auto b = net.add_node(std::make_unique<HostNode>());
  net.link(a, 0, b, 0, 5 * kMillisecond);

  stat4::TimeNs arrival = -1;
  net.node<HostNode>(b).set_handler(
      [&](p4sim::PortId, const p4sim::Packet& pkt) {
        arrival = pkt.ingress_ts;
      });
  sim.schedule_at(kMillisecond, [&] {
    net.node<HostNode>(a).transmit(0, p4sim::make_udp_packet(1, 2, 3, 4));
  });
  sim.run();
  EXPECT_EQ(arrival, 6 * kMillisecond);
  EXPECT_EQ(net.node<HostNode>(b).packets_received(), 1u);
}

TEST(Network, UnwiredPortDropsAndCounts) {
  Simulator sim;
  Network net(sim);
  const auto a = net.add_node(std::make_unique<HostNode>());
  net.node<HostNode>(a).transmit(7, p4sim::make_udp_packet(1, 2, 3, 4));
  sim.run();
  EXPECT_EQ(net.packets_dropped_unwired(), 1u);
}

TEST(Network, DoubleWireRejected) {
  Simulator sim;
  Network net(sim);
  const auto a = net.add_node(std::make_unique<HostNode>());
  const auto b = net.add_node(std::make_unique<HostNode>());
  const auto c = net.add_node(std::make_unique<HostNode>());
  net.link(a, 0, b, 0, 0);
  EXPECT_THROW(net.link(a, 0, c, 0, 0), std::invalid_argument);
}

TEST(Network, SwitchNodeForwardsThroughTopology) {
  // host A -> switch (L3 forward 10/8 -> port 1) -> host B.
  Simulator sim;
  Network net(sim);
  stat4p4::MonitorApp app;
  app.install_forward(ipv4(10, 0, 0, 0), 8, 1);

  const auto sw = net.add_node(std::make_unique<P4SwitchNode>(app.sw()));
  const auto ha = net.add_node(std::make_unique<HostNode>());
  const auto hb = net.add_node(std::make_unique<HostNode>());
  net.link(ha, 0, sw, 0, kMillisecond);
  net.link(sw, 1, hb, 0, kMillisecond);

  net.node<HostNode>(ha).transmit(
      0, p4sim::make_udp_packet(ipv4(1, 1, 1, 1), ipv4(10, 0, 5, 6), 7, 8));
  sim.run();
  EXPECT_EQ(net.node<HostNode>(hb).packets_received(), 1u);

  // Non-matching traffic is dropped by the switch, not forwarded.
  net.node<HostNode>(ha).transmit(
      0, p4sim::make_udp_packet(ipv4(1, 1, 1, 1), ipv4(9, 0, 0, 1), 7, 8));
  sim.run();
  EXPECT_EQ(net.node<HostNode>(hb).packets_received(), 1u);
}

TEST(Network, PacketKeepsItsBufferAcrossHops) {
  // host -> forward-only switch -> host moves the one buffer the host
  // built all the way through: no hop copies the packet.
  Simulator sim;
  Network net(sim);
  stat4p4::MonitorApp app;
  app.install_forward(ipv4(10, 0, 0, 0), 8, 1);
  const auto sw = net.add_node(std::make_unique<P4SwitchNode>(app.sw()));
  const auto ha = net.add_node(std::make_unique<HostNode>());
  const auto hb = net.add_node(std::make_unique<HostNode>());
  net.link(ha, 0, sw, 0, kMillisecond);
  net.link(sw, 1, hb, 0, kMillisecond);

  const p4sim::Byte* received = nullptr;
  net.node<HostNode>(hb).set_handler(
      [&](p4sim::PortId, const p4sim::Packet& pkt) {
        received = pkt.data.data();
      });
  auto pkt =
      p4sim::make_udp_packet(ipv4(1, 1, 1, 1), ipv4(10, 0, 5, 6), 7, 8);
  const p4sim::Byte* sent = pkt.data.data();
  net.node<HostNode>(ha).transmit(0, std::move(pkt));
  sim.run();
  ASSERT_EQ(net.node<HostNode>(hb).packets_received(), 1u);
  EXPECT_EQ(received, sent);
}

TEST(Network, BandwidthSerializesPackets) {
  // 1000-byte frames at 8 Mb/s serialize in 1 ms each: two frames sent
  // back-to-back arrive 1 ms apart.
  Simulator sim;
  Network net(sim);
  const auto a = net.add_node(std::make_unique<HostNode>());
  const auto b = net.add_node(std::make_unique<HostNode>());
  net.link(a, 0, b, 0, /*delay=*/0, /*bps=*/8'000'000, /*queue=*/16);

  std::vector<stat4::TimeNs> arrivals;
  net.node<HostNode>(b).set_handler(
      [&](p4sim::PortId, const p4sim::Packet& pkt) {
        arrivals.push_back(pkt.ingress_ts);
      });
  net.node<HostNode>(a).transmit(0, p4sim::make_udp_packet(1, 2, 3, 4, 1000));
  net.node<HostNode>(a).transmit(0, p4sim::make_udp_packet(1, 2, 3, 4, 1000));
  sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], kMillisecond);
  EXPECT_EQ(arrivals[1], 2 * kMillisecond);
}

TEST(Network, QueueOverflowDropsAndCounts) {
  Simulator sim;
  Network net(sim);
  const auto a = net.add_node(std::make_unique<HostNode>());
  const auto b = net.add_node(std::make_unique<HostNode>());
  net.link(a, 0, b, 0, 0, 8'000'000, /*queue=*/4);

  // Burst of 10 frames at one instant: 1 transmitting + 4 queued fit (the
  // serialization slots for sends 2..5), the rest drop.
  for (int i = 0; i < 10; ++i) {
    net.node<HostNode>(a).transmit(0,
                                   p4sim::make_udp_packet(1, 2, 3, 4, 1000));
  }
  sim.run();
  EXPECT_EQ(net.node<HostNode>(b).packets_received() +
                net.packets_dropped_queue(),
            10u);
  EXPECT_GT(net.packets_dropped_queue(), 0u);
  EXPECT_LE(net.node<HostNode>(b).packets_received(), 5u);
}

TEST(Network, InfiniteBandwidthNeverDrops) {
  Simulator sim;
  Network net(sim);
  const auto a = net.add_node(std::make_unique<HostNode>());
  const auto b = net.add_node(std::make_unique<HostNode>());
  net.link(a, 0, b, 0, kMillisecond);  // default: no bandwidth model
  for (int i = 0; i < 100; ++i) {
    net.node<HostNode>(a).transmit(0, p4sim::make_udp_packet(1, 2, 3, 4));
  }
  sim.run();
  EXPECT_EQ(net.node<HostNode>(b).packets_received(), 100u);
  EXPECT_EQ(net.packets_dropped_queue(), 0u);
}

// ------------------------------------------------------------ control channel

TEST(ControlChannel, DigestDelayedByLatency) {
  Simulator sim;
  ControlChannelConfig cfg;
  cfg.digest_latency = 5 * kMillisecond;
  cfg.controller_processing = 50 * kMillisecond;
  ControlChannel chan(sim, cfg);

  stat4::TimeNs handled = -1;
  chan.set_digest_handler([&](const p4sim::Digest&) { handled = sim.now(); });
  sim.schedule_at(kMillisecond, [&] {
    p4sim::Digest d;
    d.id = 1;
    chan.push_digest(d);
  });
  sim.run();
  EXPECT_EQ(handled, kMillisecond + 55 * kMillisecond);
  EXPECT_EQ(chan.digests_delivered(), 1u);
}

TEST(ControlChannel, TableOpsSerialize) {
  // Two table ops issued together finish 1s apart (one CLI session).
  Simulator sim;
  ControlChannel chan(sim);
  std::vector<stat4::TimeNs> done;
  chan.execute_table_op([&] { done.push_back(sim.now()); });
  chan.execute_table_op([&] { done.push_back(sim.now()); });
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], 1000 * kMillisecond);
  EXPECT_EQ(done[1], 2000 * kMillisecond);
  EXPECT_EQ(chan.ops_executed(), 2u);
}

TEST(ControlChannel, RegisterOpsCheaperThanTableOps) {
  Simulator sim;
  ControlChannel chan(sim);
  stat4::TimeNs reg_done = -1;
  chan.execute_register_op([&] { reg_done = sim.now(); });
  sim.run();
  EXPECT_EQ(reg_done, 20 * kMillisecond);
}

// -------------------------------------------------------------------- traffic

TEST(PacketPump, EmitsOnSchedule) {
  Simulator sim;
  std::vector<stat4::TimeNs> times;
  PacketPump pump(sim, [&](p4sim::Packet) { times.push_back(sim.now()); });
  pump.launch(100, 500, 100, fixed_udp_factory(1, 2));
  sim.run();
  // Emissions at 100, 200, 300, 400 (500 is the stop bound).
  EXPECT_EQ(times.size(), 4u);
  EXPECT_EQ(times.front(), 100);
  EXPECT_EQ(times.back(), 400);
  EXPECT_EQ(pump.packets_emitted(), 4u);
}

TEST(PacketPump, StopAllHalts) {
  Simulator sim;
  int emitted = 0;
  PacketPump pump(sim, [&](p4sim::Packet) { ++emitted; });
  pump.launch(0, 0, 10, fixed_udp_factory(1, 2));  // endless flow
  sim.run_until(100);
  pump.stop_all();
  sim.run();  // drains without emitting more
  EXPECT_LE(emitted, 12);
}

TEST(PacketPump, PoissonArrivalsHaveExpectedRateAndVariance) {
  Simulator sim;
  Rng rng(77);
  std::vector<stat4::TimeNs> times;
  PacketPump pump(sim, [&](p4sim::Packet) { times.push_back(sim.now()); });
  // Mean gap 100us over 10s -> ~100k packets.
  pump.launch_poisson(0, 10 * kSecond, 100'000, rng,
                      fixed_udp_factory(1, 2));
  sim.run();
  const double n = static_cast<double>(times.size());
  EXPECT_NEAR(n, 100000.0, 2000.0) << "rate should match 1/mean_gap";
  // Inter-arrival variance of an exponential equals the mean squared.
  double sum = 0;
  double sumsq = 0;
  for (std::size_t i = 1; i < times.size(); ++i) {
    const double d = static_cast<double>(times[i] - times[i - 1]);
    sum += d;
    sumsq += d * d;
  }
  const double mean = sum / (n - 1);
  const double var = sumsq / (n - 1) - mean * mean;
  EXPECT_NEAR(std::sqrt(var) / mean, 1.0, 0.05)
      << "coefficient of variation of an exponential is 1";
}

TEST(PacketPump, PoissonRejectsBadGap) {
  Simulator sim;
  Rng rng(1);
  PacketPump pump(sim, [](p4sim::Packet) {});
  EXPECT_THROW(pump.launch_poisson(0, 0, 0, rng, fixed_udp_factory(1, 2)),
               std::invalid_argument);
}

TEST(PacketPump, RejectsNonPositiveGap) {
  Simulator sim;
  PacketPump pump(sim, [](p4sim::Packet) {});
  EXPECT_THROW(pump.launch(0, 0, 0, fixed_udp_factory(1, 2)),
               std::invalid_argument);
}

TEST(Traffic, UniformFactorySpreadsDestinations) {
  Rng rng(42);
  std::vector<std::uint32_t> dests;
  for (unsigned i = 1; i <= 6; ++i) dests.push_back(ipv4(10, 0, i, 1));
  auto factory = uniform_udp_factory(rng, ipv4(1, 1, 1, 1), dests);
  std::map<std::uint32_t, int> counts;
  for (std::uint64_t i = 0; i < 6000; ++i) {
    const auto pkt = factory(i);
    const auto parsed = p4sim::parse(pkt);
    counts[parsed.ipv4->dst]++;
  }
  ASSERT_EQ(counts.size(), 6u);
  for (const auto& [dst, n] : counts) {
    EXPECT_GT(n, 800) << "destination starved";
    EXPECT_LT(n, 1200) << "destination favored";
  }
}

TEST(Traffic, SynFloodFactoryEmitsSyns) {
  Rng rng(43);
  auto factory = syn_flood_factory(rng, ipv4(10, 0, 1, 7));
  std::set<std::uint32_t> sources;
  for (std::uint64_t i = 0; i < 100; ++i) {
    const auto parsed = p4sim::parse(factory(i));
    ASSERT_TRUE(parsed.tcp.has_value());
    EXPECT_EQ(parsed.tcp->flags, p4sim::kTcpSyn);
    EXPECT_EQ(parsed.ipv4->dst, ipv4(10, 0, 1, 7));
    sources.insert(parsed.ipv4->src);
  }
  EXPECT_GT(sources.size(), 90u) << "sources should be spoofed-random";
}

TEST(Traffic, ZipfFactorySkewsTowardFirstRank) {
  Rng rng(44);
  std::vector<std::uint32_t> dests;
  for (unsigned i = 1; i <= 10; ++i) dests.push_back(ipv4(10, 0, 0, i));
  auto factory = zipf_udp_factory(rng, ipv4(1, 1, 1, 1), dests, 1.2);
  std::map<std::uint32_t, int> counts;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    counts[p4sim::parse(factory(i)).ipv4->dst]++;
  }
  EXPECT_GT(counts[dests[0]], counts[dests[4]]);
  EXPECT_GT(counts[dests[0]], 2500) << "rank 1 should dominate";
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(a.next(), b.next());
  Rng c(124);
  EXPECT_NE(Rng(123).next(), c.next());
}

TEST(Rng, Uniform01InRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

}  // namespace
}  // namespace netsim
