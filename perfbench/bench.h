// Shared pieces of the perfbench harness: command-line arguments, timing,
// order statistics, the in-memory span tracer and the outcome record that
// every workload fills.
//
// The harness drives the decimation system from outside, through public
// entry points only (service::Client/Server, core::DesignFlow and each
// module's public functions). Spans are the benchmark's own: they wrap the
// calls into a layer and never reach inside src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Build/scratch directory inside the checkout (sockets, codegen caches,
  /// trace files).
  std::string work_dir = ".bench_build";
  /// Fixed, small amount of work instead of a timed run (self-test).
  bool short_mode = false;
  /// Flip one reference sample so the correctness check must fail
  /// (self-test of the checker).
  bool corrupt_reference = false;
  /// serve_churn offered load, summed over all tenants.
  double churn_mcodes_s = 0.0;
};

/// Median and quartiles with the same method as Python's
/// statistics.quantiles(values, n=4) (the default "exclusive" method).
struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
};
Summary summarize(std::vector<double> values);

/// Value at quantile `q` (nearest rank) and the number of samples that lie
/// strictly beyond it. A tail percentile is reported only when `beyond`
/// is at least 10.
struct Tail {
  double value = 0.0;
  std::size_t beyond = 0;
  std::size_t n = 0;
};
Tail tail_quantile(std::vector<double> values, double q);

/// FNV-1a accumulation of verified outputs; the self-test compares the
/// digests of two runs with the same seed.
inline void digest_bytes(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
}
inline void digest_samples(std::uint64_t& h,
                           std::span<const std::int64_t> samples) {
  digest_bytes(h, samples.data(), samples.size_bytes());
}

/// One workload run's result: operation counts, metrics, human-readable
/// detail lines (medians, quartiles, sample counts) and the output digest.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::vector<std::string> notes;
  std::uint64_t digest = 0xcbf29ce484222325ull;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records `name` as the summary's median and notes its spread.
  void set_summary(const std::string& name, const Summary& s,
                   const std::string& unit);
  void note(const std::string& line) { notes.push_back(line); }
};

/// In-memory span recorder. A span has a name, an id shared by every span
/// of one frame or sweep, a parent span and start/end stamps. Spans stay
/// in memory and are written as a Chrome trace-event file at exit.
class Tracer {
 public:
  using SpanId = std::int32_t;
  static constexpr SpanId kNoParent = -1;

  /// `name` must outlive the tracer (string literal).
  SpanId begin(const char* name, std::uint64_t id, SpanId parent);
  void end(SpanId span);
  /// A span whose stamps were taken elsewhere (sender/receiver threads).
  SpanId record(const char* name, std::uint64_t id, SpanId parent,
                std::int64_t start_ns, std::int64_t end_ns);

  /// Sum of the durations of the completed spans called `name`, grouped by
  /// span id, in seconds.
  std::map<std::uint64_t, double> totals_by_id(const char* name) const;
  bool write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t id;
    SpanId parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const char* name, std::uint64_t id,
             Tracer::SpanId parent = Tracer::kNoParent)
      : t_(t), span_(t ? t->begin(name, id, parent) : Tracer::kNoParent) {}
  ~ScopedSpan() {
    if (t_ != nullptr) t_->end(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  Tracer::SpanId id() const { return span_; }

 private:
  Tracer* t_;
  Tracer::SpanId span_;
};

/// frame_rtt_p50_ms and frame_rtt_p99_ms from (start time, ms) per frame:
/// the medians over windows of 1000 consecutive frames of each window's
/// p50 and p99, so 10 samples lie beyond every p99 taken.
void set_rtt_metrics(std::vector<std::pair<std::int64_t, double>> frames,
                     Outcome& out);
/// loadgen.lag_p99_ms and loadgen.backlog_frames.
void set_loadgen_metrics(const std::vector<double>& lag_ms, double backlog,
                         Outcome& out);

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// Workloads (serve.cpp, flow.cpp). Each fills the end-to-end metrics for
/// an untraced run, or the per-layer ledger for a traced one.
void run_serve_lockstep(const Args& args, Outcome& out);
void run_serve_churn(const Args& args, Outcome& out);
void run_design_flow(const Args& args, Outcome& out);

}  // namespace perfbench
