#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "bench.h"

namespace perfbench {

Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  s.median = n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  if (n < 2) {
    s.q1 = s.q3 = v[0];
    return s;
  }
  // statistics.quantiles(method="exclusive"), integer arithmetic included.
  const auto ld = static_cast<long long>(n);
  const auto at = [&](long long i) {
    const long long m = ld + 1;
    const long long j = std::clamp(i * m / 4, 1LL, ld - 1);
    const long long delta = i * m - j * 4;
    return (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
            v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
           4.0;
  };
  s.q1 = at(1);
  s.q3 = at(3);
  return s;
}

Tail tail_quantile(std::vector<double> v, double q) {
  Tail t;
  t.n = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  t.value = v[rank - 1];
  t.beyond = v.size() - rank;
  return t;
}

void Outcome::set_summary(const std::string& name, const Summary& s,
                          const std::string& unit) {
  set(name, s.median, unit);
  char buf[256];
  std::snprintf(buf, sizeof buf, "%s = %.6g %s (median; q1 %.6g, q3 %.6g, n %zu)",
                name.c_str(), s.median, unit.c_str(), s.q1, s.q3, s.n);
  note(buf);
}

Tracer::SpanId Tracer::begin(const char* name, std::uint64_t id,
                             SpanId parent) {
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, id, parent, t, -1});
  return static_cast<SpanId>(spans_.size() - 1);
}

void Tracer::end(SpanId span) {
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(span)].end_ns = t;
}

Tracer::SpanId Tracer::record(const char* name, std::uint64_t id,
                              SpanId parent, std::int64_t start_ns,
                              std::int64_t end_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, id, parent, start_ns, end_ns});
  return static_cast<SpanId>(spans_.size() - 1);
}

std::map<std::uint64_t, double> Tracer::totals_by_id(const char* name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::uint64_t, double> out;
  const std::string key = name;
  for (const Span& s : spans_) {
    if (s.end_ns < 0 || key != s.name) continue;
    out[s.id] += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"traceEvents\":[";
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    if (!first) f << ",";
    first = false;
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":0,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                  "\"id\":%llu,\"parent\":%d}}",
                  s.name, static_cast<double>(s.start_ns - t0) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                  static_cast<unsigned long long>(s.id), s.parent);
    f << buf;
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

void set_rtt_metrics(std::vector<std::pair<std::int64_t, double>> frames,
                     Outcome& out) {
  std::sort(frames.begin(), frames.end());
  std::vector<double> ms;
  for (const auto& f : frames) ms.push_back(f.second);
  // p50 and p99 of each window of kWindow consecutive frames (10 beyond
  // each p99), then the median over windows: a host stall that slows one
  // burst of frames moves one window, not the run's figure. A short run is
  // one window.
  constexpr std::size_t kWindow = 1000;
  std::vector<double> p50s, p99s;
  const std::size_t windows = std::max<std::size_t>(1, ms.size() / kWindow);
  for (std::size_t w = 0; w < windows; ++w) {
    const auto first = ms.begin() + static_cast<std::ptrdiff_t>(w * kWindow);
    const std::vector<double> win(first, w + 1 == windows ? ms.end() : first + kWindow);
    p50s.push_back(summarize(win).median);
    Tail t = tail_quantile(win, 0.99);
    if (t.beyond < 10 && t.n > 10) {
      // Too few frames for a p99: the highest quantile with 10 beyond.
      t = tail_quantile(win, static_cast<double>(t.n - 10) / static_cast<double>(t.n));
    }
    p99s.push_back(t.value);
  }
  const Summary m = summarize(p50s);
  out.set("frame_rtt_p50_ms", m.median, "ms");
  const Summary s = summarize(p99s);
  out.set("frame_rtt_p99_ms", s.median, "ms");
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "frame_rtt_p50_ms = %.6g ms, frame_rtt_p99_ms = %.6g ms: medians over %zu "
                "windows of >= %zu frames (p99 q1 %.6g, q3 %.6g); all %zu frames: "
                "p50 %.6g, p99 %.6g",
                m.median, s.median, windows, std::min(kWindow, ms.size()), s.q1, s.q3,
                ms.size(), summarize(ms).median, tail_quantile(ms, 0.99).value);
  out.note(buf);
}

void set_loadgen_metrics(const std::vector<double>& lag_ms, double backlog,
                         Outcome& out) {
  out.set("loadgen.lag_p99_ms", tail_quantile(lag_ms, 0.99).value, "ms");
  out.set("loadgen.backlog_frames", backlog, "count");
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

}  // namespace perfbench
