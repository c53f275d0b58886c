#include "netsim/simulator.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace netsim {

void Simulator::schedule_at(TimeNs t, Callback cb) {
  if (t < now_) {
    throw std::invalid_argument("netsim: cannot schedule in the past");
  }
  heap_.push_back(Event{t, seq_++, std::move(cb)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void Simulator::schedule_after(TimeNs delay, Callback cb) {
  if (delay < 0) {
    throw std::invalid_argument("netsim: negative delay");
  }
  schedule_at(now_ + delay, std::move(cb));
}

void Simulator::run_next() {
  // Move out before running: the callback may schedule new events, which
  // can reallocate the heap under a reference into it.
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Event ev = std::move(heap_.back());
  heap_.pop_back();
  now_ = ev.time;
  ev.cb();
  ++processed_;
}

std::uint64_t Simulator::run() {
  std::uint64_t n = 0;
  while (!heap_.empty()) {
    run_next();
    ++n;
  }
  return n;
}

std::uint64_t Simulator::run_until(TimeNs t) {
  std::uint64_t n = 0;
  // heap_.front() is the earliest event (Later puts it on top).
  while (!heap_.empty() && heap_.front().time <= t) {
    run_next();
    ++n;
  }
  if (now_ < t) now_ = t;
  return n;
}

}  // namespace netsim
