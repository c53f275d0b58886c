// Discrete-event simulator: the timing substrate replacing Mininet.
//
// Everything in the case-study emulation — packet transmission, link
// latency, controller processing, table-update delays — is an event on one
// deterministic nanosecond clock, so experiments are exactly reproducible
// from their seeds (unlike the paper's wall-clock veth/OVS setup).
//
// Events are moved, never copied: the queue is a binary heap over a
// std::vector, and run()/run_until() move the due event out of it before
// calling it.  A callback that owns state (a captured Packet, say) is
// therefore never duplicated on its way through the queue, and a small
// trivially copyable closure — the shape the netsim hot path schedules —
// lives inside std::function's inline buffer with no heap allocation.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "stat4/types.hpp"

namespace netsim {

using stat4::TimeNs;

class Simulator {
 public:
  using Callback = std::function<void()>;

  /// Schedule `cb` at absolute time `t` (must be >= now()).
  void schedule_at(TimeNs t, Callback cb);

  /// Schedule `cb` after `delay` nanoseconds.
  void schedule_after(TimeNs delay, Callback cb);

  [[nodiscard]] TimeNs now() const noexcept { return now_; }

  /// Run until the event queue drains.  Returns events processed.
  std::uint64_t run();

  /// Run events with time <= `t`; afterwards now() == t (even if idle).
  std::uint64_t run_until(TimeNs t);

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }
  [[nodiscard]] std::uint64_t events_processed() const noexcept {
    return processed_;
  }

 private:
  struct Event {
    TimeNs time = 0;
    std::uint64_t seq = 0;  ///< FIFO tie-break for equal timestamps
    Callback cb;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// Pops the earliest event, advances the clock to it and runs it.
  void run_next();

  std::vector<Event> heap_;  ///< std::push_heap/pop_heap order under Later
  TimeNs now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t processed_ = 0;
};

}  // namespace netsim
