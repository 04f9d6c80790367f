// The decimation chain driven one code at a time through the stage
// push()es: the per-sample reference that block-kernel tests compare
// DecimationChain::process against (outputs, fx counters, trace events).
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "src/decimator/chain.h"

namespace dsadc::testing_ref {

class PushChain {
 public:
  explicit PushChain(const decim::ChainConfig& cfg)
      : cfg_(cfg),
        cic_(cfg.cic_stages),
        hbf_(cfg.hbf, cfg.hbf_in_format, cfg.hbf_out_format,
             cfg.hbf_coeff_frac_bits),
        scaler_(cfg.scale, cfg.hbf_out_format, cfg.scaler_out_format,
                /*frac_bits=*/14, /*max_digits=*/8),
        eq_(decim::FixedTaps::from_real(cfg.equalizer_taps,
                                        cfg.equalizer_frac_bits),
            /*decimation=*/1, cfg.scaler_out_format, cfg.output_format),
        gain_log2_(static_cast<int>(std::lround(
            std::log2(static_cast<double>(cic_.total_dc_gain()))))) {}

  /// Push one code; appends the chain output when one is produced.
  void push(std::int32_t code, std::vector<std::int64_t>& out) {
    static const fx::EventCounters& ec = fx::event_counters("chain_hbf_in");
    std::int64_t v = code;
    for (auto& stage : cic_.stages()) {
      std::int64_t next = 0;
      if (!stage.push(v, next)) return;
      v = next;
    }
    v = fx::requantize(v, gain_log2_, cfg_.hbf_in_format,
                       fx::Rounding::kRoundNearest, fx::Overflow::kSaturate,
                       &ec);
    std::int64_t h = 0;
    if (!hbf_.push(v, h)) return;
    std::int64_t e = 0;
    if (eq_.push(scaler_.push(h), e)) out.push_back(e);
  }

  std::vector<std::int64_t> run(const std::vector<std::int32_t>& codes) {
    std::vector<std::int64_t> out;
    for (const std::int32_t c : codes) push(c, out);
    return out;
  }

 private:
  decim::ChainConfig cfg_;
  decim::CicCascade cic_;
  decim::SaramakiHbfDecimator hbf_;
  decim::ScalingStage scaler_;
  decim::FirDecimator eq_;
  int gain_log2_;
};

}  // namespace dsadc::testing_ref
