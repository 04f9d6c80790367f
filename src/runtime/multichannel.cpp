#include "src/runtime/multichannel.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "src/decimator/simd.h"
#include "src/obs/metrics.h"

namespace dsadc::runtime {
namespace {

// log2 of the CIC cascade DC gain (same rule as DecimationChain: the
// cascade gain must be a power of two so renormalization is a pure shift).
int cic_cascade_gain_log2(const std::vector<design::CicSpec>& stages) {
  double g = 0.0;
  for (const auto& s : stages) {
    g += s.order * std::log2(static_cast<double>(s.decimation));
  }
  const int gi = static_cast<int>(std::lround(g));
  if (std::abs(g - gi) > 1e-9) {
    throw std::invalid_argument(
        "ChainBank: CIC gain must be a power of two for shift "
        "normalization");
  }
  return gi;
}

}  // namespace

std::size_t configured_threads() {
  if (const char* env = std::getenv("DSADC_RUNTIME_THREADS")) {
    const long n = std::strtol(env, nullptr, 10);
    if (n >= 1) return static_cast<std::size_t>(n);
    return 1;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

ChainBank::ChainBank(const decim::ChainConfig& config, std::size_t lanes)
    : lanes_(lanes),
      renorm_(cic_cascade_gain_log2(config.cic_stages), config.hbf_in_format,
              fx::Rounding::kRoundNearest,
              fx::event_counters("chain_hbf_in")),
      hbf_(config.hbf, lanes, config.hbf_in_format, config.hbf_out_format,
           config.hbf_coeff_frac_bits),
      scaler_(config.scale, config.hbf_out_format, config.scaler_out_format,
              /*frac_bits=*/14, /*max_digits=*/8),
      equalizer_(decim::FixedTaps::from_real(config.equalizer_taps,
                                             config.equalizer_frac_bits),
                 /*decimation=*/1, lanes, config.scaler_out_format,
                 config.output_format) {
  cic_.reserve(config.cic_stages.size());
  for (const auto& spec : config.cic_stages) {
    cic_.emplace_back(spec, lanes);
  }
}

void ChainBank::reset() {
  for (auto& c : cic_) c.reset();
  hbf_.reset();
  equalizer_.reset();
}

void ChainBank::process_inplace(std::vector<std::int64_t>& data) {
  // Same stage sequence as DecimationChain::process, in bank form.
  for (auto& c : cic_) c.process_inplace(data);

  decim::soa::RequantTally tally;
  decim::simd::kernels().requant_rows(data.data(), data.size(), renorm_,
                                      tally);
  tally.flush(renorm_);

  hbf_.process_inplace(data);
  scaler_.process_bank_inplace(data);
  equalizer_.process_inplace(data);
}

void ChainBank::export_lane(std::size_t lane,
                            decim::DecimationChain& dst) const {
  if (lane >= lanes_) {
    throw std::invalid_argument("ChainBank: export lane out of range");
  }
  // Stage-by-stage state transplant (scaler and renorm are stateless).
  // DecimationChain befriends ChainBank precisely for this: the bank IS the
  // SoA form of the chain, so the per-stage exports land on the matching
  // scalar stages and the chain continues the lane bit-exactly.
  auto& stages = dst.cic_.stages();
  if (stages.size() != cic_.size()) {
    throw std::invalid_argument("ChainBank: export config mismatch");
  }
  for (std::size_t i = 0; i < cic_.size(); ++i) {
    cic_[i].export_lane(lane, stages[i]);
  }
  hbf_.export_lane(lane, dst.hbf_);
  equalizer_.export_lane(lane, dst.equalizer_);
}

MultiChannelRuntime::MultiChannelRuntime(const decim::ChainConfig& config,
                                         std::size_t channels)
    : channels_(channels) {
  if (channels_ == 0) {
    throw std::invalid_argument("MultiChannelRuntime: channels >= 1");
  }
  groups_.reserve((channels_ + kGroupWidth - 1) / kGroupWidth);
  for (std::size_t first = 0; first < channels_; first += kGroupWidth) {
    const std::size_t width = std::min(kGroupWidth, channels_ - first);
    groups_.emplace_back(config, first, width);
  }
}

void MultiChannelRuntime::reset() {
  for (auto& g : groups_) g.bank.reset();
}

std::vector<std::vector<std::int64_t>> MultiChannelRuntime::process(
    const std::vector<std::vector<std::int32_t>>& codes) {
  std::vector<std::vector<std::int64_t>> out;
  process_into(codes, out);
  return out;
}

void MultiChannelRuntime::process_into(
    const std::vector<std::vector<std::int32_t>>& codes,
    std::vector<std::vector<std::int64_t>>& out) {
  if (codes.size() != channels_) {
    throw std::invalid_argument(
        "MultiChannelRuntime: one code block per channel expected");
  }
  const std::size_t frames = codes.empty() ? 0 : codes[0].size();
  for (const auto& c : codes) {
    if (c.size() != frames) {
      throw std::invalid_argument(
          "MultiChannelRuntime: all channel blocks must have equal length");
    }
  }

  out.resize(channels_);
  const bool obs_on = obs::enabled();

  const auto run_group = [&](Group& g) {
    const auto t0 = std::chrono::steady_clock::now();
    const std::size_t w = g.width;
    // Hoisting the per-lane base pointers turns the interleave into flat
    // pointer walks (no vector-of-vectors indirection per element).
    g.rows.resize(w);
    for (std::size_t lane = 0; lane < w; ++lane) {
      g.rows[lane] = codes[g.first + lane].data();
    }
    g.buf.resize(frames * w);
    std::int64_t* const buf = g.buf.data();
    const std::int32_t* const* const rows = g.rows.data();
    for (std::size_t f = 0; f < frames; ++f) {
      for (std::size_t lane = 0; lane < w; ++lane) {
        buf[f * w + lane] = rows[lane][f];
      }
    }
    g.bank.process_inplace(g.buf);
    const std::size_t out_frames = g.buf.size() / w;
    for (std::size_t lane = 0; lane < w; ++lane) {
      auto& dst = out[g.first + lane];
      dst.resize(out_frames);
      std::int64_t* const d = dst.data();
      const std::int64_t* const src = g.buf.data() + lane;
      for (std::size_t f = 0; f < out_frames; ++f) d[f] = src[f * w];
    }
    if (obs_on) {
      const std::chrono::duration<double> dt =
          std::chrono::steady_clock::now() - t0;
      const double sps =
          dt.count() > 0.0 ? static_cast<double>(frames) / dt.count() : 0.0;
      if (g.sample_counters.empty()) {
        auto& reg = obs::Registry::instance();
        g.sample_counters.reserve(w);
        g.throughput_gauges.reserve(w);
        for (std::size_t lane = 0; lane < w; ++lane) {
          const std::string ch = std::to_string(g.first + lane);
          g.sample_counters.push_back(&reg.counter("runtime.samples.ch" + ch));
          g.throughput_gauges.push_back(
              &reg.gauge("runtime.throughput_sps.ch" + ch));
        }
      }
      for (std::size_t lane = 0; lane < w; ++lane) {
        g.sample_counters[lane]->add(frames);
        g.throughput_gauges[lane]->set(sps);
      }
    }
  };

  const std::size_t workers =
      std::min(configured_threads(), groups_.size());
  if (workers <= 1) {
    for (auto& g : groups_) run_group(g);
    return;
  }

  // Atomic-claim worker pool over the (independent) groups. Group width
  // is fixed, so partitioning -- and therefore every lane's arithmetic --
  // is identical for every worker count; only scheduling varies.
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::mutex error_mu;
  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= groups_.size()) return;
      try {
        run_group(groups_[i]);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
        return;
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (std::size_t t = 1; t < workers; ++t) pool.emplace_back(worker);
  worker();
  for (auto& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace dsadc::runtime
