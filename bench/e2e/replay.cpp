#include "replay.hpp"

#include <algorithm>
#include <iterator>
#include <tuple>

#include "p4sim/parser.hpp"

namespace e2e {
namespace {

/// The probes repeat each side-effect-free call this many times between two
/// clock reads, so a call of a few nanoseconds is not lost in the clock.
constexpr int kProbeReps = 8;

/// Cost of one steady_clock read (mean of the middle half of 1000 pairs),
/// subtracted from every probe.
double clock_cost_ns() {
  std::vector<double> d;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t a = now_ns();
    const std::uint64_t b = now_ns();
    d.push_back(static_cast<double>(b - a));
  }
  std::sort(d.begin(), d.end());
  double sum = 0;
  for (std::size_t i = d.size() / 4; i < 3 * d.size() / 4; ++i) sum += d[i];
  return sum / static_cast<double>(d.size() / 2);
}

auto digest_key(const p4sim::Digest& d) {
  return std::tuple(d.time, d.id, d.payload[0], d.payload[1], d.payload[2]);
}

bool digest_less(const p4sim::Digest& a, const p4sim::Digest& b) {
  return digest_key(a) < digest_key(b);
}

}  // namespace

Replay::Replay(p4sim::P4Switch& sw, Tracer& tracer)
    : sw_(sw),
      tr_(tracer),
      op_process_(tracer.op("p4sim.process")),
      op_probe_(tracer.op("p4sim.probe")) {
  if (tr_.on()) clock_ns_ = clock_cost_ns();
}

void Replay::feed(p4sim::Packet pkt) {
  const bool first = fed_++ == 0;
  const bool timed = tr_.on() && (first || fed_ % 16 == 1);
  if (timed && !first) {
    tr_.to(op_probe_);
    probe(pkt);
  }
  tr_.to(op_process_);
  const std::uint64_t t0 = timed ? now_ns() : 0;
  sw_.process_into(std::move(pkt), out_);
  const std::uint64_t t1 = timed ? now_ns() : 0;
  if (timed) {
    const double ns = static_cast<double>(t1 - t0) - clock_ns_;
    if (first) {
      first_packet_ms_ = ns / 1e6;  // includes lowering the pipeline
    } else {
      process_.push_back(ns);
      residual_.push_back(ns - parse_.back() - lookup_.back());
    }
  }
  digests_.insert(digests_.end(), out_.digests.begin(), out_.digests.end());
}

void Replay::probe(const p4sim::Packet& pkt) {
  // Per-call nanoseconds of `reps` calls timed together.
  auto per_call = [this](std::uint64_t from, std::uint64_t to) {
    return (static_cast<double>(to - from) - clock_ns_) / kProbeReps;
  };
  p4sim::ParsedPacket parsed;
  const std::uint64_t a = now_ns();
  for (int r = 0; r < kProbeReps; ++r) {
    parsed = p4sim::parse(pkt);
    keep_ += parsed.eth.ether_type;
  }
  const std::uint64_t b = now_ns();
  p4sim::PacketView view;
  view.parsed = &parsed;
  view.meta_ingress_port = pkt.ingress_port;
  view.meta_ingress_ts = static_cast<std::uint64_t>(pkt.ingress_ts);
  view.meta_packet_length = pkt.size();
  // The stages process_into() would look up: guard holds, and not a table
  // whose only outcome is an empty default action (the pipeline skips
  // those).
  const std::uint64_t c = now_ns();
  for (int r = 0; r < kProbeReps; ++r) {
    for (const p4sim::P4Switch::Stage& stage : sw_.pipeline()) {
      if (!stage.table) continue;
      if (stage.guard && !stage.guard->holds(view)) continue;
      const p4sim::MatchActionTable& t = sw_.table(*stage.table);
      if (t.default_only() && sw_.action(t.default_action()).code.empty()) {
        continue;
      }
      keep_ += t.lookup(view).action;
    }
  }
  const std::uint64_t d = now_ns();
  p4sim::Packet copy = pkt;
  const std::uint64_t e = now_ns();
  for (int r = 0; r < kProbeReps; ++r) {
    p4sim::deparse(parsed, copy);
    keep_ += copy.data[0];
  }
  const std::uint64_t f = now_ns();
  parse_.push_back(per_call(a, b));
  lookup_.push_back(per_call(c, d));
  deparse_.push_back(per_call(e, f));
}

void Replay::report(Tracer& tracer) const {
  tracer.value("p4sim.parse_ns.p50", median(parse_));
  tracer.value("p4sim.lookup_ns.p50", median(lookup_));
  tracer.value("p4sim.deparse_ns.p50", median(deparse_));
  tracer.value("p4sim.process_ns.p50", median(process_));
  tracer.value("p4sim.process_ns.p99", quantile(process_, 0.99));
  tracer.value("p4sim.action_residual_ns.p50", median(residual_));
  tracer.value("p4sim.first_packet_ms", first_packet_ms_);
  tracer.value("p4sim.probe_samples", static_cast<double>(process_.size()));
  tracer.value("trace.clock_read_ns", clock_ns_);
}

std::uint64_t digest_mismatches(std::vector<p4sim::Digest> a,
                                std::vector<p4sim::Digest> b) {
  std::sort(a.begin(), a.end(), digest_less);
  std::sort(b.begin(), b.end(), digest_less);
  std::vector<p4sim::Digest> diff;
  std::set_symmetric_difference(a.begin(), a.end(), b.begin(), b.end(),
                                std::back_inserter(diff), digest_less);
  return diff.size();
}

}  // namespace e2e
