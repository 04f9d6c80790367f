// Counter exactness of the scalar chain's block kernels.
//
// DecimationChain::process runs every stage as a block kernel with inline
// requantization and per-block fx event tallies; the stage push()es are
// the per-sample reference that calls fx::requantize once per event. For
// the paper chain and a serialized W-CDMA design, over all nine stimulus
// classes and ragged block splits, the two must agree on every output
// sample and on every per-site fx.{saturate,round,wrap} total; an
// overdriven variant of the paper chain makes the saturating sites fire.
// A last test runs four chains at once and requires exactly four times the
// single-chain totals (no lost or doubled flushes under contention).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/core/flow.h"
#include "src/decimator/chain.h"
#include "src/decimator/soa.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/service/wire.h"
#include "src/verify/stimulus.h"
#include "tests/push_chain.h"

namespace {

using namespace dsadc;

/// Every fx call site on the chain's datapath.
const std::vector<std::string>& chain_sites() {
  static const std::vector<std::string> sites = {
      "chain_hbf_in", "hbf_in",     "hbf_product", "hbf_internal",
      "hbf_out",      "scaler_out", "fir_out"};
  return sites;
}

/// fx.<event>.<site> counter values, keyed "<event>.<site>".
using FxTotals = std::map<std::string, std::uint64_t>;

FxTotals snapshot_sites(const std::vector<std::string>& sites) {
  FxTotals t;
  auto& reg = obs::Registry::instance();
  for (const std::string& site : sites) {
    for (const char* event : {"saturate", "round", "wrap"}) {
      const std::string key = std::string(event) + "." + site;
      t[key] = reg.counter("fx." + key).value();
    }
  }
  return t;
}

FxTotals snapshot() { return snapshot_sites(chain_sites()); }

FxTotals delta(const FxTotals& before, const FxTotals& after) {
  FxTotals d;
  for (const auto& [key, v] : after) d[key] = v - before.at(key);
  return d;
}

/// DecimationChain::process over ragged block splits, including empty and
/// single-code blocks and splits inside every decimation phase.
std::vector<std::int64_t> run_blocks(const decim::ChainConfig& cfg,
                                     const std::vector<std::int32_t>& codes,
                                     std::uint64_t seed) {
  static constexpr std::array<std::size_t, 12> kSizes = {
      0, 1, 2, 3, 7, 8, 15, 33, 64, 257, 1000, 2049};
  std::mt19937_64 rng(seed);
  decim::DecimationChain chain(cfg);
  std::vector<std::int64_t> out;
  std::size_t pos = 0;
  while (pos < codes.size()) {
    const std::size_t n =
        std::min(kSizes[rng() % kSizes.size()], codes.size() - pos);
    const auto block = chain.process(
        std::span<const std::int32_t>(codes.data() + pos, n));
    out.insert(out.end(), block.begin(), block.end());
    pos += n;
  }
  return out;
}

std::vector<std::int32_t> stimulus_codes(verify::StimulusClass c,
                                         std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto raw = verify::make_stimulus(c, 6000, fx::Format{4, 0}, rng);
  return std::vector<std::int32_t>(raw.begin(), raw.end());
}

/// The W-CDMA retarget of the design flow (5 MHz band at OSR 32), sent
/// through the wire codec the way a tenant would.
decim::ChainConfig wcdma_config() {
  mod::ModulatorSpec m;
  m.order = 4;
  m.osr = 32.0;
  m.obg = 2.5;
  m.sample_rate_hz = 320e6;
  m.bandwidth_hz = 5e6;
  m.msa = 0.85;
  mod::DecimatorSpec d;
  d.passband_edge_hz = 5e6;
  d.stopband_edge_hz = 5.75e6;
  d.output_rate_hz = 10e6;
  d.target_snr_db = 90.0;
  const decim::ChainConfig designed = core::DesignFlow::design(m, d).chain;
  decim::ChainConfig cfg;
  EXPECT_TRUE(service::decode_chain_config(
      service::encode_chain_config(designed), &cfg));
  return cfg;
}

/// The paper chain overdriven so the saturating sites fire: a narrow HBF
/// output register and a 32x scaler constant.
decim::ChainConfig overdriven_config() {
  decim::ChainConfig cfg = decim::paper_chain_config();
  cfg.hbf_out_format = fx::Format{15, 14};
  cfg.scale *= 32.0;
  return cfg;
}

class BlockCounters : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!obs::kCompiledOn) GTEST_SKIP() << "instrumentation compiled out";
    obs::set_enabled(true);
  }

  /// Block path vs push path on every stimulus class for one config;
  /// returns the reference's per-site totals summed over the classes.
  static FxTotals check_config(const decim::ChainConfig& cfg) {
    FxTotals all;
    for (int k = 0; k < verify::kNumStimulusClasses; ++k) {
      const auto cls = static_cast<verify::StimulusClass>(k);
      SCOPED_TRACE(verify::stimulus_name(cls));
      const auto codes = stimulus_codes(cls, 0xB10C + k);

      const FxTotals t0 = snapshot();
      const auto ref = testing_ref::PushChain(cfg).run(codes);
      const FxTotals t1 = snapshot();
      const auto got = run_blocks(cfg, codes, 0x5EED + k);
      const FxTotals t2 = snapshot();

      EXPECT_FALSE(ref.empty());
      EXPECT_EQ(got, ref);
      EXPECT_EQ(delta(t1, t2), delta(t0, t1));
      for (const auto& [key, v] : delta(t0, t1)) all[key] += v;
    }
    return all;
  }
};

TEST_F(BlockCounters, PaperChainBlocksMatchPush) {
  const FxTotals t = check_config(decim::paper_chain_config());
  // Not vacuous: the HBF product truncation rounds on almost every
  // product of a non-zero signal.
  EXPECT_GT(t.at("round.hbf_product"), 0u);
}

TEST_F(BlockCounters, SerializedWcdmaChainBlocksMatchPush) {
  const decim::ChainConfig cfg = wcdma_config();
  ASSERT_EQ(cfg.cic_stages.size(), 4u);  // OSR 32: four /2 Sinc stages
  const FxTotals t = check_config(cfg);
  EXPECT_GT(t.at("round.hbf_product"), 0u);
}

TEST_F(BlockCounters, OverdrivenChainBlocksMatchPush) {
  const FxTotals t = check_config(overdriven_config());
  EXPECT_GT(t.at("saturate.hbf_out"), 0u);
  EXPECT_GT(t.at("saturate.scaler_out"), 0u);
  EXPECT_GT(t.at("saturate.fir_out"), 0u);
}

TEST_F(BlockCounters, InlineRequantMatchesFxRequantizeOnEveryShift) {
  // soa::requantize against fx::requantize: result, round and saturate
  // events, over shifts from a 62-bit left shift to right shifts past 63
  // (where fx::requantize drops every bit and returns 0), both roundings.
  const fx::EventCounters& ref_site = fx::event_counters("test_ref");
  const fx::EventCounters& soa_site = fx::event_counters("test_soa");
  std::mt19937_64 rng(0xF1);
  for (const fx::Format fmt : {fx::Format{14, 13}, fx::Format{62, 40}}) {
    for (int src_frac = fmt.frac - 62; src_frac <= fmt.frac + 70;
         ++src_frac) {
      for (const auto rounding :
           {fx::Rounding::kTruncate, fx::Rounding::kRoundNearest}) {
        const int shift = src_frac - fmt.frac;
        const decim::soa::Requant rq(src_frac, fmt, rounding, soa_site);
        decim::soa::RequantTally tally;
        const FxTotals t0 = snapshot_sites({"test_ref", "test_soa"});
        for (int i = 0; i < 64; ++i) {
          // Random magnitudes up to 2^62, kept small enough that a left
          // shift cannot overflow; every fourth value is negative.
          const int max_bits = shift < 0 ? std::max(0, 61 + shift) : 62;
          const int bits = static_cast<int>(rng() % (max_bits + 1));
          std::int64_t v = static_cast<std::int64_t>(
              rng() & ((std::uint64_t{1} << bits) - 1));
          if (i % 4 == 1) v = -v;
          ASSERT_EQ(decim::soa::requantize(v, rq, tally),
                    fx::requantize(v, src_frac, fmt, rounding,
                                   fx::Overflow::kSaturate, &ref_site))
              << "shift " << shift << " v " << v;
        }
        tally.flush(rq);
        const FxTotals d =
            delta(t0, snapshot_sites({"test_ref", "test_soa"}));
        EXPECT_EQ(d.at("round.test_soa"), d.at("round.test_ref"))
            << "shift " << shift;
        EXPECT_EQ(d.at("saturate.test_soa"), d.at("saturate.test_ref"))
            << "shift " << shift;
      }
    }
  }
  // The same rejections as fx::requantize, with the same exception type.
  EXPECT_THROW(decim::soa::Requant(-63, fx::Format{14, 0},
                                   fx::Rounding::kTruncate, soa_site),
               std::invalid_argument);
  EXPECT_THROW(decim::soa::Requant(0, fx::Format{63, 0},
                                   fx::Rounding::kTruncate, soa_site),
               std::invalid_argument);
}

TEST_F(BlockCounters, FourConcurrentChainsSumExactly) {
  const auto cfg = overdriven_config();
  const auto codes =
      stimulus_codes(verify::StimulusClass::kPrbs, 0xC0C0);

  const FxTotals t0 = snapshot();
  const auto ref = run_blocks(cfg, codes, 0x1);
  const FxTotals single = delta(t0, snapshot());
  ASSERT_GT(single.at("saturate.hbf_out"), 0u);
  ASSERT_GT(single.at("round.hbf_product"), 0u);

  constexpr int kThreads = 4;
  std::vector<std::vector<std::int64_t>> outs(kThreads);
  const FxTotals t1 = snapshot();
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        outs[static_cast<std::size_t>(i)] =
            run_blocks(cfg, codes, 0x100 + static_cast<std::uint64_t>(i));
      });
    }
    for (auto& t : threads) t.join();
  }
  const FxTotals concurrent = delta(t1, snapshot());
  for (const auto& out : outs) EXPECT_EQ(out, ref);
  for (const auto& [key, v] : single) {
    EXPECT_EQ(concurrent.at(key), kThreads * v) << key;
  }
}

}  // namespace
