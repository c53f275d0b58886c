// Sketch differential replay: the C++ sketch engines (via the application
// monitors, src/sketch/monitors.hpp) against the compiled p4sim sketch
// programs, BIT-EXACT over 800-packet random streams — per-packet digests
// AND the final register image — across every ingestion mode the runtime
// uses: scalar process() vs batched process_into() with a reused output
// (the worker drain loop), each on the process-default tier and on the
// kReference walker.
// Mirrors optimizer_differential_test.cpp, but the reference here is the
// plain C++ form rather than an unoptimized twin: passing is what licenses
// the controller side (snapshots, network-wide merge) to treat the C++
// engines as ground truth for the data plane.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "p4sim/p4sim.hpp"
#include "sketch/apps.hpp"
#include "sketch/monitors.hpp"
#include "stat4/types.hpp"

namespace {

using p4sim::ipv4;
using p4sim::Packet;

// One stream element, pre-decided so the switch and the mirror agree on
// what each packet is without parsing.
struct Event {
  bool is_ipv4 = false;
  std::uint32_t dst = 0;
};

/// Heavy-tailed traffic with a mid-stream regime change (flow A dominates
/// the first half, flow B the second — food for the heavy-changer), a few
/// destinations outside the forwarding prefix (sketched but dropped) and
/// non-IPv4 echo frames (must not touch the sketch at all).
std::vector<Event> make_stream(std::uint64_t seed, int n) {
  std::mt19937_64 rng(seed);
  const std::uint32_t flow_a = ipv4(10, 0, 1, 1);
  const std::uint32_t flow_b = ipv4(10, 0, 2, 2);
  std::vector<Event> events;
  events.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    Event ev;
    const std::uint64_t roll = rng() % 16;
    if (roll == 0) {
      ev.is_ipv4 = false;  // echo frame, ipv4 headers invalid
    } else if (roll <= 7) {
      ev.is_ipv4 = true;   // the hot flow of the current regime
      ev.dst = (i < n / 2) == (rng() % 8 != 0) ? flow_a : flow_b;
    } else if (roll == 8) {
      ev.is_ipv4 = true;   // outside 10/8: dropped, still sketched
      ev.dst = ipv4(172, 16, 0, static_cast<unsigned>(rng() % 4));
    } else {
      ev.is_ipv4 = true;   // background
      ev.dst = ipv4(10, 0, static_cast<unsigned>(rng() % 8),
                    static_cast<unsigned>(rng() % 256));
    }
    events.push_back(ev);
  }
  return events;
}

Packet craft(const Event& ev, stat4::TimeNs ts) {
  Packet pkt = ev.is_ipv4
                   ? p4sim::make_udp_packet(ipv4(1, 1, 1, 1), ev.dst, 1000, 80)
                   : p4sim::make_echo_packet(ts);
  pkt.ingress_ts = ts;
  return pkt;
}

void expect_same_digests(const std::vector<p4sim::Digest>& got,
                         const std::optional<p4sim::Digest>& want,
                         const std::string& what) {
  ASSERT_EQ(got.size(), want.has_value() ? 1u : 0u) << what;
  if (!want.has_value()) return;
  ASSERT_EQ(got[0].id, want->id) << what;
  ASSERT_EQ(got[0].payload, want->payload) << what;
  ASSERT_EQ(got[0].time, want->time) << what;
}

struct Leg {
  bool compiled = false;  ///< the process-default tier, else kReference
  bool batched = false;   ///< process_into() with a reused SwitchOutput

  [[nodiscard]] std::string name() const {
    return std::string(batched ? "batch" : "scalar") +
           (compiled ? "+fastpath" : "+interp");
  }
};

const Leg kLegs[] = {{false, false}, {true, false}, {false, true},
                     {true, true}};

/// Replays the stream through a freshly configured SketchApp under `leg`,
/// checking each packet's digests against `observe`; returns how many
/// digests fired (the callers assert the stream actually exercised them —
/// a digest-free stream would pass this differential trivially).
template <typename Monitor>
std::size_t replay(sketch::SketchApp& app, Monitor& mirror, const Leg& leg,
                   const std::vector<Event>& events) {
  app.sw().set_exec_tier(leg.compiled ? p4sim::default_exec_tier()
                                      : p4sim::ExecTier::kReference);
  p4sim::SwitchOutput reused;
  std::size_t fired = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto ts = static_cast<stat4::TimeNs>(i);
    Packet pkt = craft(events[i], ts);
    const std::string what = leg.name() + " packet " + std::to_string(i);
    std::optional<p4sim::Digest> want;
    if (events[i].is_ipv4) want = mirror.observe(events[i].dst, ts);
    if (want.has_value()) ++fired;
    if (leg.batched) {
      app.sw().process_into(std::move(pkt), reused);
      expect_same_digests(reused.digests, want, what);
    } else {
      expect_same_digests(app.sw().process(std::move(pkt)).digests, want,
                          what);
    }
    if (::testing::Test::HasFatalFailure()) return fired;
  }
  return fired;
}

void configure(sketch::SketchApp& app, std::uint64_t threshold) {
  app.install_forward(ipv4(10, 0, 0, 0), 8, 1);
  app.install_sketch(0, 0, /*shift=*/0, /*mask=*/0xFFFFFFFFull, threshold);
}

class SketchDifferential : public ::testing::TestWithParam<Leg> {};

TEST_P(SketchDifferential, CountMinHeavyHitterBitExact) {
  const sketch::SketchConfig cfg;
  const std::uint64_t threshold = 24;
  sketch::SketchApp app(sketch::SketchKind::kCountMin, cfg);
  configure(app, threshold);
  sketch::HeavyHitterMonitor mirror(cfg, sketch::KeyExtract{}, threshold);
  const std::size_t fired = replay(app, mirror, GetParam(),
                                   make_stream(11, 800));
  if (::testing::Test::HasFatalFailure()) return;
  EXPECT_GE(fired, 2u);  // both hot flows cross the threshold

  // Register image vs engine state, word for word.
  const sketch::CountMinSketch snap = app.snapshot_count_min();
  for (unsigned r = 0; r < sketch::kSketchDepth; ++r) {
    for (std::uint64_t c = 0; c < cfg.width; ++c) {
      ASSERT_EQ(snap.cell(r, c), mirror.sketch().cell(r, c));
    }
  }
  const p4sim::RegisterFile& regs = app.sw().registers();
  ASSERT_EQ(regs.read(app.regs().total, 0), mirror.total());
  for (std::uint64_t c = 0; c < cfg.width; ++c) {
    ASSERT_EQ(regs.read(app.regs().hh_seen, c), mirror.reported()[c]);
  }
}

TEST_P(SketchDifferential, CountSketchHeavyChangerBitExact) {
  sketch::SketchConfig cfg;
  cfg.epoch_shift = 6;  // 64-packet windows: 800 packets = 12 full epochs
  const std::uint64_t threshold = 10;
  sketch::SketchApp app(sketch::SketchKind::kCountSketch, cfg);
  configure(app, threshold);
  sketch::HeavyChangerMonitor mirror(cfg, sketch::KeyExtract{}, threshold);
  const std::size_t fired = replay(app, mirror, GetParam(),
                                   make_stream(22, 800));
  if (::testing::Test::HasFatalFailure()) return;
  EXPECT_GE(fired, 1u);  // the mid-stream regime change must be seen

  const sketch::CountSketch cur = app.snapshot_count_sketch_current();
  const sketch::CountSketch prev = app.snapshot_count_sketch_previous();
  const p4sim::RegisterFile& regs = app.sw().registers();
  ASSERT_EQ(regs.read(app.regs().total, 0), mirror.total());
  for (unsigned r = 0; r < sketch::kSketchDepth; ++r) {
    for (std::uint64_t c = 0; c < cfg.width; ++c) {
      ASSERT_EQ(cur.plus(r, c), mirror.current().plus(r, c));
      ASSERT_EQ(cur.minus(r, c), mirror.current().minus(r, c));
      ASSERT_EQ(prev.plus(r, c), mirror.previous().plus(r, c));
      ASSERT_EQ(prev.minus(r, c), mirror.previous().minus(r, c));
      ASSERT_EQ(regs.read(app.regs().cs_epoch[r], c),
                mirror.epoch_stamp(r, c));
    }
  }
  for (std::uint64_t c = 0; c < cfg.width; ++c) {
    ASSERT_EQ(regs.read(app.regs().ch_reported, c), mirror.reported_epoch(c));
  }
}

TEST_P(SketchDifferential, InvertibleEpochTicksBitExact) {
  sketch::SketchConfig cfg;
  cfg.epoch_shift = 6;
  sketch::SketchApp app(sketch::SketchKind::kInvertible, cfg);
  configure(app, /*threshold=*/0);
  sketch::NetwideMonitor mirror(cfg, sketch::KeyExtract{});
  const std::size_t fired = replay(app, mirror, GetParam(),
                                   make_stream(33, 800));
  if (::testing::Test::HasFatalFailure()) return;
  // Only ipv4 packets advance the counter; ~750 of 800 => 11 full epochs.
  EXPECT_GE(fired, 10u);

  const sketch::InvertibleSketch snap = app.snapshot_invertible();
  ASSERT_EQ(app.sw().registers().read(app.regs().total, 0), mirror.total());
  for (unsigned r = 0; r < sketch::kSketchDepth; ++r) {
    for (std::uint64_t c = 0; c < cfg.width; ++c) {
      ASSERT_EQ(snap.count(r, c), mirror.sketch().count(r, c));
      ASSERT_EQ(snap.keysum(r, c), mirror.sketch().keysum(r, c));
      ASSERT_EQ(snap.checksum(r, c), mirror.sketch().checksum(r, c));
    }
  }
  // And the snapshot decodes to the same flow list as the mirror engine —
  // the full controller round trip registers -> engine -> flows.
  const sketch::DecodeResult a = snap.decode();
  const sketch::DecodeResult b = mirror.sketch().decode();
  ASSERT_EQ(a.complete, b.complete);
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    ASSERT_EQ(a.flows[i].key, b.flows[i].key);
    ASSERT_EQ(a.flows[i].count, b.flows[i].count);
  }
}

INSTANTIATE_TEST_SUITE_P(AllLegs, SketchDifferential,
                         ::testing::ValuesIn(kLegs),
                         [](const ::testing::TestParamInfo<Leg>& param_info) {
                           std::string n = param_info.param.name();
                           for (char& ch : n) {
                             if (ch == '+') ch = '_';
                           }
                           return n;
                         });

}  // namespace
