// Tests for the discrete-event simulator, network wiring, control channel,
// and traffic generation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <stdexcept>
#include <vector>

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

// ---------------------------------------------------------- ordering contract

/// The simulator's ordering contract written the slow way: every event
/// fires in ascending (time, scheduling order), found by scanning a flat
/// list.  It offers the Simulator calls the replay below makes.
class OrderModel {
 public:
  using Callback = std::function<void()>;
  using EventFn = Simulator::EventFn;
  using LaneId = Simulator::LaneId;

  void schedule_at(stat4::TimeNs t, Callback cb) {
    if (t < now_) throw std::invalid_argument("model: past");
    items_.push_back(Item{t, next_order_++, std::move(cb), kNoLane});
  }
  void schedule_after(stat4::TimeNs delay, Callback cb) {
    schedule_at(now_ + delay, std::move(cb));
  }
  void schedule_at(stat4::TimeNs t, EventFn fn, void* ctx,
                   std::uint64_t arg) {
    schedule_at(t, [fn, ctx, arg] { fn(ctx, arg); });
  }
  LaneId add_lane() { return next_lane_++; }
  /// A lane event is an ordinary event that may not precede its lane's
  /// last queued one.
  void schedule_lane(LaneId lane, stat4::TimeNs t, EventFn fn, void* ctx,
                     std::uint64_t arg) {
    for (const Item& item : items_) {
      if (item.lane == lane && t < item.time) {
        throw std::invalid_argument("model: lane goes back");
      }
    }
    schedule_at(t, fn, ctx, arg);
    items_.back().lane = lane;
  }
  [[nodiscard]] stat4::TimeNs now() const { return now_; }
  [[nodiscard]] bool empty() const { return items_.empty(); }
  [[nodiscard]] std::size_t pending() const { return items_.size(); }

  std::uint64_t run_until(stat4::TimeNs t) {
    const std::uint64_t n = run_due(t);
    if (now_ < t) now_ = t;
    return n;
  }
  std::uint64_t run() {
    return run_due(std::numeric_limits<stat4::TimeNs>::max());
  }

 private:
  std::uint64_t run_due(stat4::TimeNs t) {
    std::uint64_t n = 0;
    while (!items_.empty()) {
      const auto first = std::min_element(
          items_.begin(), items_.end(), [](const Item& a, const Item& b) {
            return a.time != b.time ? a.time < b.time : a.order < b.order;
          });
      if (first->time > t) break;
      Item item = std::move(*first);
      items_.erase(first);
      now_ = item.time;
      item.cb();
      ++n;
    }
    return n;
  }

  static constexpr LaneId kNoLane = ~LaneId{0};
  struct Item {
    stat4::TimeNs time = 0;
    std::uint64_t order = 0;
    Callback cb;
    LaneId lane = kNoLane;
  };
  std::vector<Item> items_;
  std::uint64_t next_order_ = 0;
  LaneId next_lane_ = 0;
  stat4::TimeNs now_ = 0;
};

/// Replays one seeded random schedule on `Queue` and returns its trace:
/// each fired event's id and time, and after every run_until cut the
/// number it ran, now(), pending() and empty().  Times are drawn from a
/// narrow range so equal times are common, and fired events schedule more
/// at now and later, through schedule_at and schedule_after.  With
/// `kLanes` they also use the allocation-free form and three lanes, whose
/// events often tie with loose ones, and now and then try to put a lane
/// event before the lane's last (the trace records the refusal).
template <typename Queue, bool kLanes = false>
std::vector<std::int64_t> replay_random_schedule(std::uint64_t seed) {
  Queue q;
  Rng rng(seed);
  std::vector<std::int64_t> trace;
  int next_id = 0;
  int budget = 300;  // events fired events may still schedule
  std::function<void(int)> fire;
  constexpr Simulator::EventFn kFire = [](void* ctx, std::uint64_t id) {
    (*static_cast<std::function<void(int)>*>(ctx))(static_cast<int>(id));
  };
  std::vector<Simulator::LaneId> lanes;
  std::vector<stat4::TimeNs> lane_last;  // latest time scheduled per lane
  if constexpr (kLanes) {
    for (int i = 0; i < 3; ++i) lanes.push_back(q.add_lane());
    lane_last.assign(lanes.size(), 0);
  }
  const auto schedule = [&](stat4::TimeNs delay) {
    const int id = next_id++;
    const auto form = rng.below(kLanes ? 5 : 2);
    if (form == 0) {
      q.schedule_at(q.now() + delay, [&fire, id] { fire(id); });
    } else if (form == 1) {
      q.schedule_after(delay, [&fire, id] { fire(id); });
    } else if constexpr (kLanes) {
      const auto uid = static_cast<std::uint64_t>(id);
      if (form == 2) {
        q.schedule_at(q.now() + delay, kFire, &fire, uid);
        return;
      }
      const auto l = rng.below(lanes.size());
      stat4::TimeNs t = std::max(q.now() + delay, lane_last[l]);
      if (lane_last[l] > q.now() && rng.below(8) == 0) {
        // Before the lane's last queued event: refused, queue unchanged.
        const std::size_t before = q.pending();
        t = lane_last[l] - 1;
        try {
          q.schedule_lane(lanes[l], t, kFire, &fire, uid);
          trace.push_back(-2);
        } catch (const std::invalid_argument&) {
          trace.push_back(-1);
        }
        trace.push_back(static_cast<std::int64_t>(q.pending() - before));
        return;
      }
      q.schedule_lane(lanes[l], t, kFire, &fire, uid);
      lane_last[l] = t;
    }
  };
  const auto draw_delay = [&]() -> stat4::TimeNs {
    switch (rng.below(4)) {
      case 0: return 0;
      case 1: return static_cast<stat4::TimeNs>(1 + rng.below(3));
      default: return static_cast<stat4::TimeNs>(rng.below(40));
    }
  };
  fire = [&](int id) {
    trace.push_back(id);
    trace.push_back(q.now());
    for (auto children = rng.below(3); children > 0 && budget > 0;
         --children, --budget) {
      schedule(draw_delay());
    }
  };
  for (int i = 0; i < 20; ++i) schedule(draw_delay());
  stat4::TimeNs cut = 0;
  for (int round = 0; round < 12; ++round) {
    cut += static_cast<stat4::TimeNs>(rng.below(25));
    trace.push_back(static_cast<std::int64_t>(q.run_until(cut)));
    trace.push_back(q.now());
    trace.push_back(static_cast<std::int64_t>(q.pending()));
    trace.push_back(q.empty() ? 1 : 0);
    // Outside any callback: more events at the cut itself and later.
    for (auto extra = rng.below(3); extra > 0; --extra) {
      schedule(draw_delay());
    }
  }
  trace.push_back(static_cast<std::int64_t>(q.run()));
  trace.push_back(q.now());
  trace.push_back(static_cast<std::int64_t>(q.pending()));
  trace.push_back(q.empty() ? 1 : 0);
  return trace;
}

TEST(SimulatorOrder, RandomSchedulesMatchTheTimeThenSchedulingOrderModel) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const auto got = replay_random_schedule<Simulator>(seed);
    const auto want = replay_random_schedule<OrderModel>(seed);
    ASSERT_GT(want.size(), 200u) << "seed " << seed;
    ASSERT_EQ(got, want) << "seed " << seed;
  }
}

TEST(SimulatorOrder, RandomSchedulesWithLanesMatchTheModel) {
  std::size_t refusals = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const auto got = replay_random_schedule<Simulator, true>(seed);
    const auto want = replay_random_schedule<OrderModel, true>(seed);
    ASSERT_GT(want.size(), 200u) << "seed " << seed;
    ASSERT_EQ(got, want) << "seed " << seed;
    refusals += static_cast<std::size_t>(std::count(got.begin(), got.end(), -1));
    ASSERT_EQ(std::count(got.begin(), got.end(), -2), 0) << "seed " << seed;
  }
  EXPECT_GT(refusals, 10u) << "too few back-in-time lane events tried";
}

TEST(SimulatorOrder, LaneEventsInterleaveWithLooseOnesInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  constexpr Simulator::EventFn kRecord = [](void* ctx, std::uint64_t id) {
    static_cast<std::vector<int>*>(ctx)->push_back(static_cast<int>(id));
  };
  const auto a = sim.add_lane();
  const auto b = sim.add_lane();
  // All at t = 5, in this scheduling order: the firing order.
  sim.schedule_lane(a, 5, kRecord, &order, 0);
  sim.schedule_at(5, [&] { order.push_back(1); });
  sim.schedule_lane(b, 5, kRecord, &order, 2);
  sim.schedule_at(5, kRecord, &order, 3);
  sim.schedule_lane(a, 5, kRecord, &order, 4);
  sim.schedule_lane(b, 5, kRecord, &order, 5);
  sim.schedule_lane(a, 7, kRecord, &order, 7);
  sim.schedule_at(6, kRecord, &order, 6);
  EXPECT_EQ(sim.pending(), 8u);
  EXPECT_EQ(sim.run(), 8u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimulatorOrder, LaneEventBackInTimeThrowsAndLeavesTheQueueUnchanged) {
  Simulator sim;
  std::vector<int> order;
  constexpr Simulator::EventFn kRecord = [](void* ctx, std::uint64_t id) {
    static_cast<std::vector<int>*>(ctx)->push_back(static_cast<int>(id));
  };
  const auto lane = sim.add_lane();
  sim.schedule_lane(lane, 10, kRecord, &order, 10);
  sim.schedule_lane(lane, 20, kRecord, &order, 20);
  sim.schedule_at(15, kRecord, &order, 15);
  EXPECT_THROW(sim.schedule_lane(lane, 19, kRecord, &order, 19),
               std::invalid_argument);
  EXPECT_EQ(sim.pending(), 3u);
  sim.run_until(12);
  EXPECT_THROW(sim.schedule_lane(lane, 11, kRecord, &order, 11),
               std::invalid_argument);  // before now()
  sim.schedule_lane(lane, 20, kRecord, &order, 21);  // a tie is fine
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{10, 15, 20, 21}));
  // An empty lane takes any time from now() on.
  sim.schedule_lane(lane, 20, kRecord, &order, 22);
  EXPECT_THROW(sim.schedule_lane(lane + 1, 30, kRecord, &order, 0),
               std::out_of_range);
  sim.run();
  EXPECT_EQ(order.back(), 22);
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

TEST(Network, SerializedBurstsArriveInSendOrderAtGoldenTimes) {
  // Both directions of one 8 Mb/s, 50 us link with a 3-packet queue.  Each
  // burst is sent within one ns, with frame sizes that differ, so every
  // packet arrives at its own serialization time; the frames that find the
  // queue full are tail-dropped.
  Simulator sim;
  Network net(sim);
  const auto a = net.add_node(std::make_unique<HostNode>());
  const auto b = net.add_node(std::make_unique<HostNode>());
  net.link(a, 0, b, 0, 50 * stat4::kMicrosecond, 8'000'000, /*queue=*/3);

  std::vector<std::pair<std::uint16_t, stat4::TimeNs>> at_a;
  std::vector<std::pair<std::uint16_t, stat4::TimeNs>> at_b;
  const auto record = [](auto& log) {
    return [&log](p4sim::PortId, const p4sim::Packet& pkt) {
      log.emplace_back(p4sim::parse(pkt).udp->src_port, pkt.ingress_ts);
    };
  };
  net.node<HostNode>(a).set_handler(record(at_a));
  net.node<HostNode>(b).set_handler(record(at_b));
  // Frame i of a burst is `bytes - i * shrink` bytes long.
  const auto burst = [&](NodeId from, std::uint16_t first, int n,
                         std::size_t bytes, std::size_t shrink) {
    for (int i = 0; i < n; ++i) {
      const auto sport = static_cast<std::uint16_t>(first + i);
      const std::size_t size = bytes - static_cast<std::size_t>(i) * shrink;
      net.node<HostNode>(from).transmit(
          0, p4sim::make_udp_packet(1, 2, sport, 9, size));
    }
  };
  sim.schedule_at(1000, [&] { burst(a, 100, 6, 700, 100); });
  sim.schedule_at(1000, [&] { burst(b, 200, 2, 300, 0); });
  sim.schedule_at(1'500'000, [&] { burst(a, 300, 3, 200, 0); });
  sim.run();

  // 700, 600 and 500 bytes take 700, 600 and 500 us; 103-105 find three
  // slots committed and drop.  At 1.5 ms 200-byte frames queue behind 102:
  // 300 and 301 fit, 302 drops.
  const std::vector<std::pair<std::uint16_t, stat4::TimeNs>> want_b = {
      {100, 751'000},   {101, 1'351'000}, {102, 1'851'000},
      {300, 2'051'000}, {301, 2'251'000}};
  const std::vector<std::pair<std::uint16_t, stat4::TimeNs>> want_a = {
      {200, 351'000}, {201, 651'000}};
  EXPECT_EQ(at_b, want_b);
  EXPECT_EQ(at_a, want_a);
  EXPECT_EQ(net.packets_dropped_queue(), 4u);
  EXPECT_EQ(net.packets_delivered(), at_a.size() + at_b.size());
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
