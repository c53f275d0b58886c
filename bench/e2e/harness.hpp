// Shared plumbing of the end-to-end benchmark: run options, the outcome a
// workload reports, sample statistics and the span tracer.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/span.hpp"

namespace e2e {

using telemetry::now_ns;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;   ///< budget for the timed trials
  bool smoke = false;      ///< ~1% length: correctness only, no timing claims
  std::string trace_path;  ///< non-empty: traced run, spans written here
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string basis;  ///< how it was aggregated, with its sample count
};

/// What one workload run reports.
struct Outcome {
  std::vector<Metric> metrics;  ///< end-to-end, gated by BENCHMARK.json
  std::vector<Metric> info;     ///< printed for the reader, never gated
  std::vector<std::string> notes;  ///< e.g. each lane's active exec tier
  std::uint64_t attempted = 0;  ///< checked operations
  std::uint64_t failed = 0;     ///< of those, lost or wrong
  std::vector<std::string> mismatches;  ///< the first few failures, spelled out

  void fail(std::uint64_t n, const std::string& what);
};

/// q-quantile (q in [0,1]) by linear interpolation; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// In-memory spans around the harness's calls into each layer.
///
/// A traced run opens *windows* that tile the producer thread's work (a
/// few thousand sends, a batch of epochs, one case-study seed); each is a
/// root span carrying a request id.  Inside a window every clock read
/// closes one segment of time and opens the next, and each segment is
/// charged to the innermost open operation: the top-level *phase* the
/// producer switched to with to(), or a Timed call nested inside it.  So
/// the spans tile the window; the root keeps only time spent outside any
/// phase.  At window end each (op, enclosing op) node becomes ONE packed
/// span holding its summed time and call count, laid end to end inside
/// its parent, which keeps the trace a few thousand events long at
/// millions of calls per second while self times stay exact.  Per-call
/// durations are sampled too (1 in 16, decimated into a bounded buffer)
/// for per-call quantiles.
///
/// Off (the timed runs), to() and Timed cost one predictable branch and no
/// clock read.
class Tracer {
 public:
  using OpId = std::size_t;
  static constexpr OpId kNone = ~OpId{0};

  [[nodiscard]] bool on() const noexcept { return on_; }
  void set_on(bool on) noexcept { on_ = on; }

  /// Registers an operation named `<layer>.<what>` (idempotent by name).
  /// A call longer than `slow_ns` is charged to `slow` instead — for leaf
  /// operations, e.g. an inject that met a full ring and waited.
  OpId op(const std::string& name, OpId slow = kNone,
          std::uint64_t slow_ns = 0);

  void begin_window(const std::string& name, std::uint64_t req);
  void end_window();

  /// Closes the open top-level phase, if any, and opens `op` as the next,
  /// with one clock read.  Only at top level (no Timed open).
  void to(OpId op) {
    if (on_) switch_phase(op);
  }

  /// A per-layer number measured outside the spans (a counter delta, a
  /// quantile of harness-side samples), stored in the trace as-is.
  void value(const std::string& key, double v);

  /// Chrome trace-event JSON: traceEvents (root + packed spans; args id,
  /// parent, req, count) and otherData (per-op call counts and sampled
  /// per-call nanoseconds, and the values).
  void write(const std::string& path, const std::string& workload,
             std::uint64_t seed) const;

 private:
  friend class Timed;
  struct OpStats {
    std::string name;
    OpId slow = kNone;
    std::uint64_t slow_ns = 0;
    std::uint64_t calls = 0;
    std::uint32_t period = 16;  ///< sample every period-th call
    std::vector<std::uint32_t> samples;
  };
  struct Node {
    OpId op = 0;
    std::size_t parent = 0;  ///< node index; 0 is the window root
    std::vector<std::size_t> children;
    std::uint64_t self_ns = 0;   ///< this window
    std::uint64_t calls = 0;     ///< this window
    std::uint64_t self_at_open = 0;
  };
  struct Event {
    std::string name;
    std::uint64_t ts = 0;
    std::uint64_t dur = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::uint64_t req = 0;
    std::uint64_t count = 0;
  };

  void charge(std::uint64_t now);
  std::size_t child(std::size_t node, OpId op);
  std::size_t open(OpId op, std::uint64_t now);
  void close(std::size_t node, std::uint64_t start, std::uint64_t now);
  void switch_phase(OpId op);
  void sample(OpId op, std::uint64_t ns);
  std::uint64_t emit(std::size_t node, std::uint64_t event_id,
                     std::uint64_t start);

  bool on_ = false;
  std::vector<OpStats> ops_;
  std::vector<Node> nodes_{Node{}};
  std::size_t cur_ = 0;
  std::uint64_t mark_ = 0;  ///< the last clock read
  bool phase_open_ = false;
  std::size_t phase_ = 0;
  std::uint64_t phase_start_ = 0;
  bool in_window_ = false;
  std::string win_name_;
  std::uint64_t win_req_ = 0;
  std::uint64_t win_start_ = 0;
  std::uint64_t next_id_ = 1;
  std::vector<Event> events_;
  std::vector<std::pair<std::string, double>> values_;
};

/// One call into a layer, nested in the current phase or call, timed while
/// the tracer is on.
class Timed {
 public:
  Timed(Tracer& t, Tracer::OpId op) : t_(t.on() ? &t : nullptr) {
    if (t_ == nullptr) return;
    start_ = now_ns();
    node_ = t_->open(op, start_);
  }
  ~Timed() {
    if (t_ != nullptr) t_->close(node_, start_, now_ns());
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  Tracer* t_;
  std::size_t node_ = 0;
  std::uint64_t start_ = 0;
};

/// Runs the named workload; throws std::invalid_argument for an unknown
/// name.
Outcome run_workload(const Options& opt, Tracer& tracer);

}  // namespace e2e
