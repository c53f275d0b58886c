#include "harness.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace e2e {

void Outcome::fail(std::uint64_t n, const std::string& what) {
  if (n == 0) return;
  failed += n;
  if (mismatches.size() < 8) mismatches.push_back(what);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

Tracer::OpId Tracer::op(const std::string& name, OpId slow,
                        std::uint64_t slow_ns) {
  for (OpId i = 0; i < ops_.size(); ++i) {
    if (ops_[i].name == name) return i;
  }
  OpStats s;
  s.name = name;
  s.slow = slow;
  s.slow_ns = slow_ns;
  ops_.push_back(std::move(s));
  return ops_.size() - 1;
}

void Tracer::charge(std::uint64_t now) {
  nodes_[cur_].self_ns += now - mark_;
  mark_ = now;
}

std::size_t Tracer::child(std::size_t node, OpId op) {
  for (const std::size_t c : nodes_[node].children) {
    if (nodes_[c].op == op) return c;
  }
  Node n;
  n.op = op;
  n.parent = node;
  nodes_.push_back(std::move(n));
  nodes_[node].children.push_back(nodes_.size() - 1);
  return nodes_.size() - 1;
}

std::size_t Tracer::open(OpId op, std::uint64_t now) {
  charge(now);
  cur_ = child(cur_, op);
  nodes_[cur_].self_at_open = nodes_[cur_].self_ns;
  ++nodes_[cur_].calls;
  return cur_;
}

void Tracer::close(std::size_t node, std::uint64_t start, std::uint64_t now) {
  charge(now);  // cur_ == node
  const std::uint64_t ns = now - start;
  OpId charged = nodes_[node].op;
  const OpStats& s = ops_[charged];
  if (s.slow != kNone && ns > s.slow_ns) {
    // Move this call's time to the slow sibling.
    const std::uint64_t self = nodes_[node].self_ns - nodes_[node].self_at_open;
    nodes_[node].self_ns -= self;
    --nodes_[node].calls;
    charged = s.slow;
    const std::size_t slow = child(nodes_[node].parent, charged);
    nodes_[slow].self_ns += self;
    ++nodes_[slow].calls;
  }
  cur_ = nodes_[node].parent;
  sample(charged, ns);
}

void Tracer::switch_phase(OpId op) {
  const std::uint64_t now = now_ns();
  if (phase_open_) {
    close(phase_, phase_start_, now);
  } else {
    charge(now);
  }
  phase_ = open(op, now);
  phase_start_ = now;
  phase_open_ = true;
}

void Tracer::sample(OpId op, std::uint64_t ns) {
  OpStats& s = ops_[op];
  if (++s.calls % s.period != 0) return;
  s.samples.push_back(
      static_cast<std::uint32_t>(std::min<std::uint64_t>(ns, UINT32_MAX)));
  // Bounded buffer: keep every other sample and halve the rate, so the
  // kept samples stay spread evenly over the whole run.
  if (s.samples.size() >= 16384) {
    for (std::size_t i = 0; i < s.samples.size() / 2; ++i) {
      s.samples[i] = s.samples[2 * i];
    }
    s.samples.resize(s.samples.size() / 2);
    s.period *= 2;
  }
}

void Tracer::begin_window(const std::string& name, std::uint64_t req) {
  if (!on_) return;
  if (in_window_) end_window();
  in_window_ = true;
  win_name_ = name;
  win_req_ = req;
  cur_ = 0;
  phase_open_ = false;
  win_start_ = mark_ = now_ns();
}

void Tracer::end_window() {
  if (!in_window_) return;
  in_window_ = false;
  const std::uint64_t now = now_ns();
  if (phase_open_) {
    close(phase_, phase_start_, now);
    phase_open_ = false;
  } else {
    charge(now);
  }
  const std::uint64_t root = next_id_++;
  events_.push_back(Event{win_name_, win_start_, now - win_start_, root, 0,
                          win_req_, 1});
  emit(0, root, win_start_);
}

std::uint64_t Tracer::emit(std::size_t node, std::uint64_t event_id,
                           std::uint64_t start) {
  // Children are laid end to end from `start`; returns the node's total.
  std::uint64_t cursor = start;
  for (const std::size_t c : nodes_[node].children) {
    if (nodes_[c].calls == 0 && nodes_[c].self_ns == 0) continue;
    const std::size_t at = events_.size();
    const std::uint64_t id = next_id_++;
    events_.push_back(Event{ops_[nodes_[c].op].name, cursor, 0, id, event_id,
                            win_req_, nodes_[c].calls});
    const std::uint64_t dur = emit(c, id, cursor);
    events_[at].dur = dur;
    cursor += dur;
  }
  const std::uint64_t total = nodes_[node].self_ns + (cursor - start);
  nodes_[node].self_ns = 0;
  nodes_[node].calls = 0;
  return total;
}

void Tracer::value(const std::string& key, double v) {
  values_.emplace_back(key, v);
}

void Tracer::write(const std::string& path, const std::string& workload,
                   std::uint64_t seed) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("bench_e2e: cannot write " + path);
  const std::uint64_t t0 = events_.empty() ? 0 : events_.front().ts;
  char buf[256];
  out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    std::snprintf(buf, sizeof buf,
                  "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                  "\"dur\": %.3f, \"args\": {\"id\": %" PRIu64
                  ", \"parent\": %" PRIu64 ", \"req\": %" PRIu64
                  ", \"count\": %" PRIu64 "}}",
                  static_cast<double>(e.ts - t0) / 1e3,
                  static_cast<double>(e.dur) / 1e3, e.id, e.parent, e.req,
                  e.count);
    out << (i == 0 ? "" : ",\n") << "{\"name\": \"" << e.name << buf;
  }
  out << "\n], \"otherData\": {\"workload\": \"" << workload
      << "\", \"seed\": " << seed << ", \"ops\": {";
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    const OpStats& s = ops_[i];
    out << (i == 0 ? "\n" : ",\n") << "\"" << s.name
        << "\": {\"calls\": " << s.calls << ", \"samples\": [";
    for (std::size_t j = 0; j < s.samples.size(); ++j) {
      out << (j == 0 ? "" : ",") << s.samples[j];
    }
    out << "]}";
  }
  out << "}, \"values\": {";
  for (std::size_t i = 0; i < values_.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", values_[i].second);
    out << (i == 0 ? "\n" : ",\n") << "\"" << values_[i].first
        << "\": " << buf;
  }
  out << "}}}\n";
  if (!out) throw std::runtime_error("bench_e2e: failed writing " + path);
}

}  // namespace e2e
