// Multi-producer / single-consumer channel for switch digests.
//
// The control-plane side of the runtime: every switch worker pushes its
// digests here, and one consumer — the controller thread — drains them into
// the FleetCorrelator or a user sink.  Unlike the packet path, this channel
// may take a lock: anomaly digests are rare by design (the whole point of
// in-switch detection is that the switch only talks to the controller when
// something is wrong), so a mutex-protected queue is both simple and
// contention-free in practice, and it keeps the channel safe for any number
// of producers.
#pragma once

#include <deque>
#include <mutex>
#include <utility>
#include <vector>

namespace runtime {

template <typename T>
class MpscChannel {
 public:
  /// Any thread may push.
  void push(T item) {
    std::lock_guard<std::mutex> lock(mu_);
    items_.push_back(std::move(item));
  }

  /// Move everything currently queued into `out` (appended); returns the
  /// number of items drained.  Non-blocking.
  std::size_t drain(std::vector<T>& out) {
    std::deque<T> grabbed;
    {
      std::lock_guard<std::mutex> lock(mu_);
      grabbed.swap(items_);
    }
    for (auto& item : grabbed) out.push_back(std::move(item));
    return grabbed.size();
  }

 private:
  std::mutex mu_;
  std::deque<T> items_;
};

}  // namespace runtime
