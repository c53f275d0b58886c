// The single-threaded reference replay, and the p4sim layer probes.
//
// Every fleet workload feeds each lane's exact packet sequence through a
// fresh copy of that lane's app on the harness thread with process_into();
// FleetRunner lanes are FIFO, so the digests must match as multisets.  In
// a traced run the same replay also times the p4sim layers on one packet in
// 16: parse(), MatchActionTable::lookup() over the stages the pipeline
// would run, deparse(), and the whole process_into().
#pragma once

#include <cstdint>
#include <vector>

#include "harness.hpp"
#include "p4sim/switch.hpp"

namespace e2e {

class Replay {
 public:
  /// `sw` is a freshly built app that has seen no packet.
  Replay(p4sim::P4Switch& sw, Tracer& tracer);

  void feed(p4sim::Packet pkt);

  [[nodiscard]] const std::vector<p4sim::Digest>& digests() const noexcept {
    return digests_;
  }

  /// Writes the probe quantiles as tracer values (traced runs only).
  void report(Tracer& tracer) const;

 private:
  void probe(const p4sim::Packet& pkt);

  p4sim::P4Switch& sw_;
  Tracer& tr_;
  Tracer::OpId op_process_;
  Tracer::OpId op_probe_;
  p4sim::SwitchOutput out_;
  std::vector<p4sim::Digest> digests_;
  std::uint64_t fed_ = 0;
  double first_packet_ms_ = 0;
  double clock_ns_ = 0;  ///< cost of one clock read, subtracted from probes
  std::uint64_t keep_ = 0;  ///< consumes probe results so none is elided
  std::vector<double> parse_, lookup_, deparse_, process_, residual_;
};

/// Digests in one multiset but not the other (both directions).
[[nodiscard]] std::uint64_t digest_mismatches(std::vector<p4sim::Digest> a,
                                              std::vector<p4sim::Digest> b);

}  // namespace e2e
