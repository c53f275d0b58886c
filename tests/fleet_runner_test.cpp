// Concurrency stress tests for the fleet runtime: N producer switches,
// bursty traffic, randomized shutdown points.  The invariants under test:
//
//   * accounting reconciles:  sent == delivered + dropped  per switch —
//     backpressure sheds load but never mis-counts it;
//   * no digest is lost or duplicated between a switch worker and the
//     controller sink, under flush and under racing shutdown;
//   * flush() is a real barrier: after it, switch registers reflect every
//     injected packet;
//   * staged packets reach the lane without extra calls: an idle lane gets
//     a lone inject, flush() publishes a partial stage, and a control
//     thread polling digests never touches another thread's stage.
//
// Run under TSan (see .github/workflows/ci.yml) — this file is what keeps
// the runtime honest.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "p4sim/craft.hpp"
#include "runtime/runtime.hpp"
#include "stat4p4/stat4p4.hpp"

namespace {

using p4sim::ipv4;
using runtime::FleetRunner;
using runtime::SpscRing;

p4sim::Packet make_packet(std::uint32_t src, std::uint32_t dst,
                          stat4::TimeNs ts) {
  p4sim::Packet pkt = p4sim::make_udp_packet(src, dst, 1000, 2000);
  pkt.ingress_ts = ts;
  return pkt;
}

/// A monitor switch with forwarding plus a checked frequency binding, so the
/// workload emits real digests.
void configure_switch(stat4p4::MonitorApp& app) {
  app.install_forward(ipv4(10, 0, 0, 0), 8, 1);
  stat4p4::FreqBindingSpec spec;
  spec.dst_prefix = ipv4(10, 0, 0, 0);
  spec.dst_prefix_len = 8;
  spec.dist = 1;
  spec.shift = 0;
  spec.mask = 0xFF;
  spec.check = true;
  spec.min_total = 64;
  app.install_freq_binding(spec);
}

// ------------------------------------------------------------- SPSC ring

TEST(SpscRing, FifoOrderAcrossThreads) {
  SpscRing<std::uint64_t> ring(64);
  constexpr std::uint64_t kCount = 100000;
  std::thread consumer([&] {
    std::uint64_t expected = 0;
    const auto check = [&expected](std::uint64_t& item) {
      ASSERT_EQ(item, expected) << "ring must preserve FIFO order";
      ++expected;
    };
    runtime::Backoff backoff;
    while (expected < kCount) {
      if (ring.consume_burst(1, check) != 0) {
        backoff.reset();
      } else {
        backoff.pause();
      }
    }
  });
  for (std::uint64_t i = 0; i < kCount; ++i) {
    ring.stage_blocking(std::uint64_t{i}, [] {});
    ring.publish();
  }
  consumer.join();
}

TEST(SpscRing, TryPushFailsWhenFullAndCapacityHolds) {
  SpscRing<int> ring(4);
  std::size_t pushed = 0;
  while (ring.stage(1)) {
    ring.publish();
    ++pushed;
  }
  EXPECT_GE(pushed, 4u);
  EXPECT_EQ(pushed, ring.capacity());
  ASSERT_EQ(ring.consume_burst(1, [](int&) {}), 1u);
  EXPECT_TRUE(ring.stage(2)) << "a drained slot must take a new item";
}

TEST(MpscChannel, AllProducersDrainOnce) {
  runtime::MpscChannel<std::uint64_t> channel;
  constexpr int kProducers = 4;
  constexpr std::uint64_t kPerProducer = 10000;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&channel, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        channel.push(static_cast<std::uint64_t>(p) * kPerProducer + i);
      }
    });
  }
  for (auto& t : producers) t.join();
  std::vector<std::uint64_t> got;
  channel.drain(got);
  ASSERT_EQ(got.size(), kProducers * kPerProducer);
  std::sort(got.begin(), got.end());
  for (std::uint64_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], i) << "every item exactly once";
  }
}

// ----------------------------------------------------------- fleet runner

TEST(FleetRunner, FlushIsABarrierAndLosslessModeDropsNothing) {
  FleetRunner::Config cfg;
  cfg.queue_capacity = 64;
  cfg.policy = FleetRunner::Policy::kBlock;
  FleetRunner runner(cfg);

  constexpr std::size_t kSwitches = 3;
  std::vector<std::unique_ptr<stat4p4::MonitorApp>> apps;
  for (std::size_t i = 0; i < kSwitches; ++i) {
    apps.push_back(std::make_unique<stat4p4::MonitorApp>());
    configure_switch(*apps.back());
    ASSERT_EQ(runner.add_switch(*apps[i]), i);
  }

  std::vector<std::uint64_t> sink_digests(kSwitches, 0);
  runner.set_digest_sink([&](control::SwitchId sw, const p4sim::Digest&) {
    ++sink_digests[sw];
  });

  runner.start();
  // Balanced traffic first (silent), then a heavy hitter per switch.
  stat4::TimeNs t = 0;
  for (int round = 0; round < 200; ++round) {
    for (std::size_t sw = 0; sw < kSwitches; ++sw) {
      const auto dst = ipv4(10, 0, 1, static_cast<unsigned>(round % 16));
      ASSERT_TRUE(runner.inject(static_cast<control::SwitchId>(sw),
                                make_packet(ipv4(1, 1, 1, 1), dst, t)));
    }
    t += 1000;
  }
  for (int round = 0; round < 400; ++round) {
    for (std::size_t sw = 0; sw < kSwitches; ++sw) {
      ASSERT_TRUE(runner.inject(static_cast<control::SwitchId>(sw),
                                make_packet(ipv4(2, 2, 2, 2),
                                            ipv4(10, 0, 1, 7), t)));
    }
    t += 1000;
  }
  runner.flush();
  runner.poll_digests();

  for (std::size_t sw = 0; sw < kSwitches; ++sw) {
    const auto c = runner.counters(static_cast<control::SwitchId>(sw));
    EXPECT_EQ(c.sent, 600u);
    EXPECT_EQ(c.delivered, 600u) << "lossless mode must deliver everything";
    EXPECT_EQ(c.dropped, 0u);
    EXPECT_GE(c.digests, 1u) << "the heavy hitter must raise a digest";
    EXPECT_EQ(c.digests, sink_digests[sw]) << "no digest lost or duplicated";
    // The flush barrier makes worker-side state safely readable.
    EXPECT_EQ(apps[sw]->sw().packets_processed(), 600u);
    EXPECT_EQ(apps[sw]->sw().digests_emitted(), c.digests);
  }
  runner.stop();
}

TEST(FleetRunner, DropAccountingReconcilesUnderOverload) {
  FleetRunner::Config cfg;
  cfg.queue_capacity = 8;  // tiny ring: guarantees overload drops
  cfg.policy = FleetRunner::Policy::kDrop;
  FleetRunner runner(cfg);

  stat4p4::MonitorApp app_a;
  stat4p4::MonitorApp app_b;
  configure_switch(app_a);
  configure_switch(app_b);
  runner.add_switch(app_a);
  runner.add_switch(app_b);

  std::vector<std::uint64_t> sink_digests(2, 0);
  runner.set_digest_sink([&](control::SwitchId sw, const p4sim::Digest&) {
    ++sink_digests[sw];
  });

  runner.start();
  std::mt19937_64 rng(7);
  stat4::TimeNs t = 0;
  std::uint64_t accepted = 0;
  for (int i = 0; i < 50000; ++i) {
    const auto sw = static_cast<control::SwitchId>(i % 2);
    const auto dst = ipv4(10, 0, 1, static_cast<unsigned>(rng() % 32));
    if (runner.inject(sw, make_packet(ipv4(1, 1, 1, 1), dst, t))) ++accepted;
    t += 100;
  }
  runner.stop();

  const auto totals = runner.totals();
  EXPECT_EQ(totals.sent, 50000u);
  EXPECT_EQ(totals.delivered, accepted);
  EXPECT_EQ(totals.sent, totals.delivered + totals.dropped)
      << "every packet is either delivered or a counted drop";
  EXPECT_EQ(totals.digests, sink_digests[0] + sink_digests[1]);
  EXPECT_EQ(app_a.sw().packets_processed() + app_b.sw().packets_processed(),
            totals.delivered);
}

TEST(FleetRunner, RandomizedShutdownWithRacingProducers) {
  for (const std::uint64_t seed : {11ull, 22ull, 33ull}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    FleetRunner::Config cfg;
    cfg.queue_capacity = 128;
    cfg.policy = FleetRunner::Policy::kDrop;
    FleetRunner runner(cfg);

    constexpr std::size_t kSwitches = 4;
    std::vector<std::unique_ptr<stat4p4::MonitorApp>> apps;
    for (std::size_t i = 0; i < kSwitches; ++i) {
      apps.push_back(std::make_unique<stat4p4::MonitorApp>());
      configure_switch(*apps.back());
      runner.add_switch(*apps.back());
    }

    std::vector<std::uint64_t> sink_digests(kSwitches, 0);
    runner.set_digest_sink([&](control::SwitchId sw, const p4sim::Digest&) {
      ++sink_digests[sw];
    });

    runner.start();
    std::vector<std::thread> producers;
    for (std::size_t sw = 0; sw < kSwitches; ++sw) {
      producers.emplace_back([&runner, sw, seed] {
        std::mt19937_64 rng(seed * 100 + sw);
        stat4::TimeNs t = 0;
        std::uint64_t injected = 0;
        while (injected < 100000 && !runner.stop_requested()) {
          // Bursty: a burst of random size, then yield the core.
          const std::uint64_t burst = 1 + rng() % 256;
          for (std::uint64_t i = 0; i < burst; ++i) {
            const auto dst =
                ipv4(10, 0, 1, static_cast<unsigned>(rng() % 64));
            runner.inject(static_cast<control::SwitchId>(sw),
                          make_packet(ipv4(1, 1, 1, 1), dst, t));
            t += 100;
            ++injected;
          }
          std::this_thread::yield();
        }
        // Last act of the producer: mark its lane's end of stream.
        runner.close_input(static_cast<control::SwitchId>(sw));
      });
    }

    // Randomized shutdown point.
    std::mt19937_64 stop_rng(seed);
    std::this_thread::sleep_for(
        std::chrono::milliseconds(1 + stop_rng() % 20));
    runner.request_stop();
    for (auto& p : producers) p.join();
    runner.stop();

    for (std::size_t sw = 0; sw < kSwitches; ++sw) {
      const auto c = runner.counters(static_cast<control::SwitchId>(sw));
      EXPECT_EQ(c.sent, c.delivered + c.dropped)
          << "switch " << sw << ": lost or double-counted packets";
      EXPECT_EQ(c.delivered, apps[sw]->sw().packets_processed())
          << "switch " << sw;
      EXPECT_EQ(c.digests, sink_digests[sw])
          << "switch " << sw << ": digest lost or duplicated in shutdown";
      EXPECT_EQ(c.digests, apps[sw]->sw().digests_emitted())
          << "switch " << sw;
    }
  }
}

TEST(FleetRunner, LiveCountersReconcileWhileRunning) {
  // counters() is documented safe to call from any thread while the fleet
  // is running (it feeds the telemetry Reporter's polling).  Two claims:
  //   * mid-flight, the release/acquire protocol guarantees the reader
  //     never sees delivered + dropped > sent (a packet is counted sent
  //     BEFORE it can be delivered or dropped);
  //   * after flush() — workers still running — the books balance exactly:
  //     sent == delivered + dropped.
  FleetRunner::Config cfg;
  cfg.queue_capacity = 16;  // small ring: keeps packets visibly in flight
  cfg.policy = FleetRunner::Policy::kDrop;
  FleetRunner runner(cfg);

  constexpr std::size_t kSwitches = 2;
  std::vector<std::unique_ptr<stat4p4::MonitorApp>> apps;
  for (std::size_t i = 0; i < kSwitches; ++i) {
    apps.push_back(std::make_unique<stat4p4::MonitorApp>());
    configure_switch(*apps.back());
    runner.add_switch(*apps.back());
  }
  runner.start();

  std::atomic<bool> injecting{true};
  std::thread observer([&] {
    while (injecting.load(std::memory_order_acquire)) {
      for (std::size_t sw = 0; sw < kSwitches; ++sw) {
        const auto c = runner.counters(static_cast<control::SwitchId>(sw));
        ASSERT_LE(c.delivered + c.dropped, c.sent)
            << "switch " << sw
            << ": outcome counted before the packet was counted sent";
      }
    }
  });

  std::mt19937_64 rng(19);
  stat4::TimeNs t = 0;
  for (std::size_t i = 0; i < 40000; ++i) {
    const auto sw = static_cast<control::SwitchId>(i % kSwitches);
    const auto dst = ipv4(10, 0, 1, static_cast<unsigned>(rng() % 32));
    runner.inject(sw, make_packet(ipv4(1, 1, 1, 1), dst, t));
    t += 100;
  }
  runner.flush();  // barrier only — workers keep running after this
  injecting.store(false, std::memory_order_release);
  observer.join();

  std::uint64_t delivered_total = 0;
  for (std::size_t sw = 0; sw < kSwitches; ++sw) {
    const auto c = runner.counters(static_cast<control::SwitchId>(sw));
    EXPECT_EQ(c.sent, 20000u) << "switch " << sw;
    EXPECT_EQ(c.sent, c.delivered + c.dropped)
        << "switch " << sw << ": books must balance after flush";
    delivered_total += c.delivered;
  }
  // Cross-check the live counters against worker-side ground truth while
  // the workers are STILL running (flush made their state readable).
  EXPECT_EQ(delivered_total, apps[0]->sw().packets_processed() +
                                 apps[1]->sw().packets_processed());
  runner.stop();
}

TEST(FleetRunner, DrainIntoCorrelatorOrdersByTime) {
  FleetRunner::Config cfg;
  cfg.policy = FleetRunner::Policy::kBlock;
  FleetRunner runner(cfg);
  stat4p4::MonitorApp app_a;
  stat4p4::MonitorApp app_b;
  configure_switch(app_a);
  configure_switch(app_b);
  const auto sw_a = runner.add_switch(app_a);
  const auto sw_b = runner.add_switch(app_b);

  runner.start();
  // Both switches see the same heavy hitter at nearly the same switch-side
  // time; B's stream is injected first, A's second — drain_into must still
  // order by digest timestamp and correlate them into ONE network event.
  stat4::TimeNs t = 0;
  for (int i = 0; i < 200; ++i) {
    runner.inject(sw_b, make_packet(ipv4(1, 1, 1, 1),
                                    ipv4(10, 0, 1, static_cast<unsigned>(
                                                       i % 16)),
                                    t));
    t += 1000;
  }
  for (int i = 0; i < 400; ++i) {
    runner.inject(sw_b,
                  make_packet(ipv4(2, 2, 2, 2), ipv4(10, 0, 1, 3), t));
    t += 1000;
  }
  t = 0;
  for (int i = 0; i < 200; ++i) {
    runner.inject(sw_a, make_packet(ipv4(1, 1, 1, 1),
                                    ipv4(10, 0, 1, static_cast<unsigned>(
                                                       i % 16)),
                                    t));
    t += 1000;
  }
  for (int i = 0; i < 400; ++i) {
    runner.inject(sw_a,
                  make_packet(ipv4(2, 2, 2, 2), ipv4(10, 0, 1, 3), t));
    t += 1000;
  }
  runner.flush();

  control::FleetCorrelator correlator(8 * stat4::kMillisecond);
  std::vector<control::FleetEvent> events;
  correlator.set_event_sink(
      [&](const control::FleetEvent& e) { events.push_back(e); });
  runner.drain_into(correlator);
  correlator.flush();
  runner.stop();

  ASSERT_EQ(events.size(), 1u) << "same-time digests must correlate";
  EXPECT_TRUE(events[0].network_wide());
  EXPECT_EQ(events[0].switches.size(), 2u);
}

TEST(FleetRunner, PollingControlThreadWhileProducersInject) {
  // Two producer threads each feed their own lane and close it; the
  // control thread polls digests the whole time.  poll_digests() publishes
  // only the stages of the lanes its caller feeds — here none — so under
  // TSan this is the proof that a polling thread never races a producer's
  // stage.
  FleetRunner::Config cfg;
  cfg.queue_capacity = 32;  // small ring: producers block and publish
  cfg.policy = FleetRunner::Policy::kBlock;
  FleetRunner runner(cfg);
  constexpr std::size_t kSwitches = 2;
  constexpr std::uint64_t kPerLane = 20000;
  std::vector<std::unique_ptr<stat4p4::MonitorApp>> apps;
  for (std::size_t i = 0; i < kSwitches; ++i) {
    apps.push_back(std::make_unique<stat4p4::MonitorApp>());
    configure_switch(*apps.back());
    runner.add_switch(*apps.back());
  }
  std::vector<std::uint64_t> sink_digests(kSwitches, 0);
  runner.set_digest_sink([&](control::SwitchId sw, const p4sim::Digest&) {
    ++sink_digests[sw];
  });
  runner.start();

  std::atomic<std::size_t> done{0};
  std::vector<std::thread> producers;
  for (std::size_t sw = 0; sw < kSwitches; ++sw) {
    producers.emplace_back([&runner, &done, sw] {
      const auto id = static_cast<control::SwitchId>(sw);
      stat4::TimeNs t = 0;
      for (std::uint64_t i = 0; i < kPerLane; ++i) {
        // Balanced traffic, then a heavy hitter that raises digests.
        const unsigned host = i < kPerLane / 2 ? static_cast<unsigned>(i % 16)
                                               : 7u;
        runner.inject(id, make_packet(ipv4(1, 1, 1, 1),
                                      ipv4(10, 0, 1, host), t));
        t += 1000;
      }
      runner.close_input(id);
      done.fetch_add(1, std::memory_order_release);
    });
  }
  std::size_t polled = 0;
  while (done.load(std::memory_order_acquire) < kSwitches) {
    polled += runner.poll_digests();
    for (std::size_t sw = 0; sw < kSwitches; ++sw) {
      const auto c = runner.counters(static_cast<control::SwitchId>(sw));
      ASSERT_LE(c.delivered + c.dropped, c.sent) << "switch " << sw;
    }
  }
  for (auto& p : producers) p.join();
  runner.stop();

  std::uint64_t digests = 0;
  for (std::size_t sw = 0; sw < kSwitches; ++sw) {
    const auto c = runner.counters(static_cast<control::SwitchId>(sw));
    EXPECT_EQ(c.sent, kPerLane) << "switch " << sw;
    EXPECT_EQ(c.delivered, kPerLane) << "switch " << sw;
    EXPECT_EQ(c.dropped, 0u) << "switch " << sw;
    EXPECT_EQ(c.delivered, apps[sw]->sw().packets_processed());
    EXPECT_GE(c.digests, 1u) << "switch " << sw;
    EXPECT_EQ(c.digests, sink_digests[sw])
        << "switch " << sw << ": digest lost or duplicated";
    EXPECT_EQ(c.digests, apps[sw]->sw().digests_emitted());
    digests += c.digests;
  }
  EXPECT_LE(polled, digests);
}

TEST(FleetRunner, IdleLaneGetsALoneInjectWithNoFurtherCall) {
  // inject() reads no clock: a packet staged for a lane that has spun out
  // is published by that same inject, through the lane's idle flag.  The
  // first packet makes the lane drain (lowering the flag a fresh ring
  // starts with); after 1 ms the lane has spun out again, so the second
  // packet tests the flag the lane raises itself.
  FleetRunner::Config cfg;
  cfg.policy = FleetRunner::Policy::kBlock;
  FleetRunner runner(cfg);
  stat4p4::MonitorApp app;
  configure_switch(app);
  runner.add_switch(app);
  runner.start();
  for (std::uint64_t n = 1; n <= 2; ++n) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_TRUE(runner.inject(0, make_packet(ipv4(1, 1, 1, 1),
                                             ipv4(10, 0, 1, 1),
                                             static_cast<stat4::TimeNs>(n))));
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (runner.counters(0).delivered != n) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "packet " << n << " to an idle lane was never delivered";
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    EXPECT_EQ(runner.counters(0).sent, n);
  }
  runner.stop();
}

TEST(FleetRunner, FlushPublishesAPartialStage) {
  FleetRunner::Config cfg;
  cfg.policy = FleetRunner::Policy::kBlock;
  cfg.drain_burst = 64;
  FleetRunner runner(cfg);
  stat4p4::MonitorApp app_a;
  stat4p4::MonitorApp app_b;
  configure_switch(app_a);
  configure_switch(app_b);
  runner.add_switch(app_a);
  runner.add_switch(app_b);
  runner.start();
  stat4::TimeNs t = 0;
  for (int round = 0; round < 5; ++round) {
    // Fewer packets than a stage holds, so most of each round is still
    // staged when flush() runs.
    for (int i = 0; i < 2 * 37; ++i) {
      runner.inject(static_cast<control::SwitchId>(i % 2),
                    make_packet(ipv4(1, 1, 1, 1), ipv4(10, 0, 1, 3), t));
      t += 1000;
    }
    runner.flush();
    const auto expect = static_cast<std::uint64_t>(37 * (round + 1));
    for (control::SwitchId sw = 0; sw < 2; ++sw) {
      const auto c = runner.counters(sw);
      EXPECT_EQ(c.sent, expect) << "switch " << sw << " round " << round;
      EXPECT_EQ(c.delivered, expect) << "switch " << sw << " round " << round;
    }
    EXPECT_EQ(app_a.sw().packets_processed(), expect);
  }
  runner.stop();
}

TEST(FleetRunner, DropPolicyReturnsFalseExactlyForCountedDrops) {
  FleetRunner::Config cfg;
  cfg.queue_capacity = 8;
  cfg.drain_burst = 4;
  cfg.policy = FleetRunner::Policy::kDrop;
  FleetRunner runner(cfg);
  stat4p4::MonitorApp app;
  configure_switch(app);
  runner.add_switch(app);
  runner.start();
  std::uint64_t refused = 0;
  stat4::TimeNs t = 0;
  for (int i = 0; i < 20000; ++i) {
    if (!runner.inject(0, make_packet(ipv4(1, 1, 1, 1),
                                      ipv4(10, 0, 1, static_cast<unsigned>(
                                                         i % 32)),
                                      t))) {
      ++refused;
    }
    t += 100;
  }
  runner.flush();
  const auto live = runner.counters(0);
  EXPECT_EQ(live.dropped, refused);
  EXPECT_EQ(live.sent, 20000u);
  EXPECT_EQ(live.sent, live.delivered + live.dropped);
  // A closed input refuses too, and counts that refusal as a drop.
  runner.close_input(0);
  EXPECT_FALSE(runner.inject(0, make_packet(ipv4(1, 1, 1, 1),
                                            ipv4(10, 0, 1, 1), t)));
  ++refused;
  runner.stop();
  const auto c = runner.counters(0);
  EXPECT_EQ(c.dropped, refused);
  EXPECT_EQ(c.sent, 20001u);
  EXPECT_EQ(c.sent, c.delivered + c.dropped);
  EXPECT_EQ(c.delivered, app.sw().packets_processed());
}

}  // namespace
