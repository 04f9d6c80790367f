// The design-flow side of the benchmark: the specification sweep and the
// paper-chain signoff, shared by the design_flow workload and the
// per-layer ledger.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "src/analyze/opt/opt.h"
#include "src/decimator/chain.h"
#include "src/modulator/spec.h"
#include "src/rtl/builders.h"
#include "src/rtl/compiled_sim.h"

namespace perfbench {

/// One specification of the sweep, with the outcome the flow reached on
/// it when the benchmark was defined (design checks and simulated SNR).
struct FlowSpec {
  const char* name;
  dsadc::mod::ModulatorSpec m;
  dsadc::mod::DecimatorSpec d;
  double ripple_db;
  double atten_db;
  double snr_db;
  double tone_hz() const { return 0.25 * m.bandwidth_hz; }
};

/// The paper LTE-20 spec (Table I) and the W-CDMA and WiMAX retargets of
/// examples/sdr_multistandard.cpp.
const std::vector<FlowSpec>& flow_specs();

/// Signoff of the paper chain: the full netlist through
/// analyze::opt::optimize and a codegen CompiledSimulator, bit-compared
/// frame by frame with DecimationChain::process. Frames are seeded
/// stimulus; the chain runs from reset on each frame, as the simulator
/// does.
class Signoff {
 public:
  Signoff(std::uint64_t seed, std::size_t frames, std::size_t frame_len,
          bool corrupt_reference);

  /// Cold set-up with DSADC_CODEGEN_CACHE_DIR = `cache_dir`: build_chain,
  /// optimize and the JIT compile of the optimized netlist. Returns the
  /// set-up seconds; false in *ok when codegen was not obtained or the
  /// netlist does not align with the chain.
  double setup(const std::string& cache_dir, bool* ok);

  /// The sweep's signoff netlist: build_chain, optimize and the codegen
  /// simulator (a warm cache hit after setup). False when codegen is
  /// unavailable; the frames then count as failed.
  bool load(Outcome& out);
  /// Frames [first, last) through the loaded netlist and the chain, each
  /// bit-compared; per-frame wall times go to `frame_ms`. Returns the
  /// number of bit-exact codes.
  std::uint64_t run_frames(std::size_t first, std::size_t last, Tracer* tr,
                           std::uint64_t id, Tracer::SpanId parent,
                           std::vector<std::pair<std::int64_t, double>>& frame_ms,
                           Outcome& out);

  const dsadc::rtl::CompiledSimulator& sim() const { return *sim_; }
  dsadc::rtl::NodeId sim_input() const { return in_; }
  const std::vector<std::vector<std::int64_t>>& frames() const {
    return codes64_;
  }

 private:
  /// build_chain, optimize and a codegen CompiledSimulator of the paper
  /// netlist; sets in_ and out_.
  std::unique_ptr<dsadc::rtl::CompiledSimulator> build_netlist();
  /// Finds shift_ and lag_ with `sim`.
  bool align(const dsadc::rtl::CompiledSimulator& sim);

  dsadc::decim::ChainConfig cfg_;
  dsadc::decim::DecimationChain chain_;  ///< reset before every frame
  std::vector<std::vector<std::int64_t>> codes64_;
  std::vector<std::vector<std::int32_t>> codes32_;
  bool corrupt_;
  std::unique_ptr<dsadc::rtl::CompiledSimulator> sim_;        ///< set-up's
  std::unique_ptr<dsadc::rtl::CompiledSimulator> sweep_sim_;  ///< load()'s
  dsadc::rtl::NodeId in_ = dsadc::rtl::kInvalidNode;
  dsadc::rtl::NodeId out_ = dsadc::rtl::kInvalidNode;
  /// The netlist sees the codes `shift_` base ticks late and emits its
  /// output `lag_` samples late (polyphase offset of the pipelined rate
  /// boundaries); the first `kSettle` outputs are start-up transient.
  int shift_ = -1;
  int lag_ = 0;
  static constexpr std::size_t kSettle = 64;
};

/// One sweep: the signoff netlist, then every spec through
/// DesignFlow::design, verify, generate_rtl and synthesize (each step
/// checked against the spec's recorded outcome), with the signoff frames
/// in chunks between the steps. Returns the sweep's wall seconds.
double run_sweep(Signoff& signoff, std::uint64_t sweep, Tracer* tr,
                 std::vector<std::pair<std::int64_t, double>>& frame_ms, std::uint64_t& exact_codes,
                 Outcome& out);

/// A fresh, empty codegen cache directory under `work_dir`.
std::string fresh_cache_dir(const std::string& work_dir, int k);

}  // namespace perfbench
