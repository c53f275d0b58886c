// Buffer locality of the fleet lanes: a lane never frees a packet buffer.
//
// FleetRunner lanes run each packet through the switch in its ring slot
// and leave the buffer there (a forwarded packet is moved back into the
// slot, a dropped one never leaves it), so the buffer is freed by the
// producer's next stage() into that slot — on the thread that allocated
// it.  A buffer malloc'ed on one thread and freed on another defeats the
// allocator's per-thread caches on both sides; that cross-thread free was
// the larger cost of the producer→lane hop.
//
// This binary replaces the global operator new/delete (plain malloc/free
// underneath) to see every free.  The test thread registers each packet
// buffer it crafts and unregisters it when it frees it itself; a free of a
// registered buffer on any other thread is a lane freeing a producer's
// buffer.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <thread>
#include <vector>

#include "p4sim/craft.hpp"
#include "runtime/runtime.hpp"
#include "stat4p4/stat4p4.hpp"

namespace {

// ------------------------------------------------- live packet buffers

// Open-addressed set of live buffer addresses.  Written only by the test
// thread (insert after crafting, tombstone on its own free); read by every
// thread's operator delete.
constexpr unsigned kSlotBits = 15;
constexpr std::size_t kSlots = std::size_t{1} << kSlotBits;
constexpr std::size_t kNone = kSlots;
constexpr std::uintptr_t kTombstone = 1;

std::array<std::atomic<std::uintptr_t>, kSlots> g_live{};
std::atomic<bool> g_tracking{false};
std::atomic<std::uint64_t> g_foreign_frees{0};
thread_local bool t_test_thread = false;

std::size_t home(std::uintptr_t p) {
  return static_cast<std::size_t>(((p >> 4) * 0x9E3779B97F4A7C15ull) >>
                                  (64 - kSlotBits));
}

std::size_t find(std::uintptr_t p) {
  for (std::size_t i = 0; i < kSlots; ++i) {
    const std::size_t s = (home(p) + i) & (kSlots - 1);
    const std::uintptr_t v = g_live[s].load(std::memory_order_acquire);
    if (v == p) return s;
    if (v == 0) return kNone;
  }
  return kNone;
}

void remember(const void* buffer) {
  const auto p = reinterpret_cast<std::uintptr_t>(buffer);
  if (find(p) != kNone) return;
  for (std::size_t i = 0; i < kSlots; ++i) {
    const std::size_t s = (home(p) + i) & (kSlots - 1);
    const std::uintptr_t v = g_live[s].load(std::memory_order_relaxed);
    if (v == 0 || v == kTombstone) {
      g_live[s].store(p, std::memory_order_release);
      return;
    }
  }
  std::abort();  // the set is full: the test leaks buffers
}

void note_free(void* ptr) noexcept {
  if (ptr == nullptr || !g_tracking.load(std::memory_order_relaxed)) return;
  const auto p = reinterpret_cast<std::uintptr_t>(ptr);
  const std::size_t s = find(p);
  if (s == kNone) return;
  if (t_test_thread) {
    g_live[s].store(kTombstone, std::memory_order_release);
  } else {
    g_foreign_frees.fetch_add(1, std::memory_order_relaxed);
  }
}

/// Marks the calling thread as the test thread and tracks frees while in
/// scope.
class Tracking {
 public:
  Tracking() {
    for (auto& slot : g_live) slot.store(0, std::memory_order_relaxed);
    g_foreign_frees.store(0, std::memory_order_relaxed);
    t_test_thread = true;
    g_tracking.store(true, std::memory_order_release);
  }
  ~Tracking() {
    g_tracking.store(false, std::memory_order_release);
    t_test_thread = false;
  }
  Tracking(const Tracking&) = delete;
  Tracking& operator=(const Tracking&) = delete;

  [[nodiscard]] static std::uint64_t foreign_frees() {
    return g_foreign_frees.load(std::memory_order_relaxed);
  }
};

}  // namespace

// ------------------------------------------- global allocation functions

void* operator new(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept {
  note_free(p);
  std::free(p);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept {
  ::operator delete(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}

namespace {

using p4sim::ipv4;
using runtime::FleetRunner;

p4sim::Packet make_packet(std::uint32_t dst, stat4::TimeNs ts) {
  p4sim::Packet pkt = p4sim::make_udp_packet(ipv4(1, 1, 1, 1), dst, 1000, 2000);
  pkt.ingress_ts = ts;
  return pkt;
}

/// Forwards 10/8 out of port 1 except 10.9/16, which a drop entry drops;
/// anything else misses the table and takes its default drop.
void configure_switch(stat4p4::MonitorApp& app) {
  app.install_forward(ipv4(10, 0, 0, 0), 8, 1);
  p4sim::MatchActionTable& fwd = app.sw().table(app.forward_table());
  p4sim::TableEntry drop;
  p4sim::KeyMatch km;
  km.value = ipv4(10, 9, 0, 0);
  km.prefix_len = 16;
  km.field_bits = 32;
  drop.key.push_back(km);
  drop.action = fwd.default_action();
  fwd.insert(std::move(drop));
}

// One destination per outcome: forwarded, dropped by entry, table miss.
const std::array<std::uint32_t, 3> kDsts = {ipv4(10, 0, 1, 1),
                                            ipv4(10, 9, 0, 1),
                                            ipv4(192, 168, 0, 1)};

TEST(FleetBufferLocality, ForeignFreeOfALiveBufferIsCounted) {
  const Tracking tracking;
  p4sim::Packet pkt = make_packet(kDsts[0], 0);
  remember(pkt.data.data());
  std::thread other([&pkt] { std::vector<p4sim::Byte>().swap(pkt.data); });
  other.join();
  EXPECT_EQ(Tracking::foreign_frees(), 1u);

  p4sim::Packet mine = make_packet(kDsts[0], 0);
  remember(mine.data.data());
  std::vector<p4sim::Byte>().swap(mine.data);
  EXPECT_EQ(Tracking::foreign_frees(), 1u) << "the test thread's own free";
}

TEST(FleetBufferLocality, LanesFreeNoPacketBuffer) {
  // The three destinations really take the three paths.
  stat4p4::MonitorApp twin;
  configure_switch(twin);
  EXPECT_FALSE(twin.sw().process(make_packet(kDsts[0], 0)).dropped);
  EXPECT_TRUE(twin.sw().process(make_packet(kDsts[1], 0)).dropped);
  EXPECT_TRUE(twin.sw().process(make_packet(kDsts[2], 0)).dropped);

  FleetRunner::Config cfg;
  cfg.queue_capacity = 256;
  cfg.policy = FleetRunner::Policy::kBlock;
  FleetRunner runner(cfg);
  std::vector<std::unique_ptr<stat4p4::MonitorApp>> apps;
  for (int i = 0; i < 2; ++i) {
    apps.push_back(std::make_unique<stat4p4::MonitorApp>());
    configure_switch(*apps.back());
    runner.add_switch(*apps.back());
  }
  runner.start();
  // Warm-up: the first packet lowers each lane's pipeline.
  stat4::TimeNs t = 0;
  for (std::size_t i = 0; i < 6; ++i) {
    runner.inject(static_cast<control::SwitchId>(i % 2),
                  make_packet(kDsts[i % 3], t += 100));
  }
  runner.flush();

  constexpr std::size_t kPackets = 10000;
  {
    const Tracking tracking;
    for (std::size_t i = 0; i < kPackets; ++i) {
      p4sim::Packet pkt = make_packet(kDsts[(i / 2) % 3], t += 100);
      remember(pkt.data.data());
      runner.inject(static_cast<control::SwitchId>(i % 2), std::move(pkt));
    }
    runner.flush();
    runner.stop();  // joins the lanes
    EXPECT_EQ(Tracking::foreign_frees(), 0u)
        << "a lane freed a packet buffer its producer allocated";
  }
  const auto totals = runner.totals();
  EXPECT_EQ(totals.delivered, kPackets + 6);
  EXPECT_EQ(totals.sent, totals.delivered);
}

}  // namespace
