// Runtime performance of the simulation substrate (google-benchmark):
// modulator, bit-true chain, design steps and the RTL simulator.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory_resource>

#include "src/analyze/opt/opt.h"
#include "src/core/flow.h"
#include "src/obs/bench_telemetry.h"
#include "src/decimator/chain.h"
#include "src/modulator/dsm.h"
#include "src/modulator/ntf.h"
#include "src/modulator/realize.h"
#include "src/obs/obs.h"
#include "src/rtl/builders.h"
#include "src/rtl/compiled_sim.h"
#include "src/rtl/sim.h"
#include "src/runtime/multichannel.h"

namespace {

using namespace dsadc;

const mod::CiffCoeffs& paper_coeffs() {
  static const mod::CiffCoeffs c =
      mod::realize_ciff(mod::synthesize_ntf(5, 16.0, 3.0, true));
  return c;
}

const std::vector<std::int32_t>& paper_codes() {
  static const std::vector<std::int32_t> codes = [] {
    mod::CiffModulator m(paper_coeffs(), 4);
    const auto u = mod::coherent_sine(1 << 15, 5e6, 640e6, 0.81, nullptr);
    return m.run(u).codes;
  }();
  return codes;
}

void BM_ModulatorSim(benchmark::State& state) {
  const auto u = mod::coherent_sine(static_cast<std::size_t>(state.range(0)),
                                    5e6, 640e6, 0.81, nullptr);
  mod::CiffModulator m(paper_coeffs(), 4);
  for (auto _ : state) {
    m.reset();
    benchmark::DoNotOptimize(m.run(u));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ModulatorSim)->Arg(1 << 12)->Arg(1 << 15);

// Ratios whose legs run in this process are measured kReps times per leg
// and taken from the legs' medians (see main()): a single run of a
// millisecond-scale leg swings by tens of percent on a shared machine.
constexpr int kReps = 10;
constexpr double kRepMinTime = 0.1;

void BM_DecimationChain(benchmark::State& state) {
  decim::DecimationChain chain(decim::paper_chain_config());
  const auto& codes = paper_codes();
  for (auto _ : state) {
    chain.reset();
    benchmark::DoNotOptimize(chain.process(codes));
  }
  state.SetItemsProcessed(state.iterations() * codes.size());
}
BENCHMARK(BM_DecimationChain)->Repetitions(kReps)->MinTime(kRepMinTime);

// The same chain with observability switched off at run time: the ratio
// BM_DecimationChain / this is obs_chain_on_off_ratio, the price of the
// chain's fx counters, stage gauges and signal statistics.
void BM_DecimationChainObsOff(benchmark::State& state) {
  obs::set_enabled(false);
  decim::DecimationChain chain(decim::paper_chain_config());
  const auto& codes = paper_codes();
  for (auto _ : state) {
    chain.reset();
    benchmark::DoNotOptimize(chain.process(codes));
  }
  obs::set_enabled(true);
  state.SetItemsProcessed(state.iterations() * codes.size());
}
BENCHMARK(BM_DecimationChainObsOff)->Repetitions(kReps)->MinTime(kRepMinTime);

// Sample-at-a-time reference for the chain: the same stages driven through
// push() one sample at a time. The ratio of BM_DecimationChain to this is
// decim_chain_batched_speedup -- the win from the batched block kernels,
// measured in the same run on the same machine.
void BM_DecimationChainPush(benchmark::State& state) {
  const auto cfg = decim::paper_chain_config();
  decim::CicCascade cic(cfg.cic_stages);
  decim::SaramakiHbfDecimator hbf(cfg.hbf, cfg.hbf_in_format,
                                  cfg.hbf_out_format, cfg.hbf_coeff_frac_bits);
  decim::ScalingStage scaler(cfg.scale, cfg.hbf_out_format,
                             cfg.scaler_out_format, /*frac_bits=*/14,
                             /*max_digits=*/8);
  decim::FirDecimator eq(
      decim::FixedTaps::from_real(cfg.equalizer_taps, cfg.equalizer_frac_bits),
      /*decimation=*/1, cfg.scaler_out_format, cfg.output_format);
  const int gain_log2 = static_cast<int>(std::lround(
      std::log2(static_cast<double>(cic.total_dc_gain()))));
  static const fx::EventCounters& ec = fx::event_counters("chain_hbf_in");
  const auto& codes = paper_codes();
  for (auto _ : state) {
    cic.reset();
    hbf.reset();
    eq.reset();
    std::vector<std::int64_t> out;
    out.reserve(codes.size() / 16 + 1);
    for (const std::int32_t code : codes) {
      std::int64_t v = code;
      bool have = true;
      for (auto& stage : cic.stages()) {
        std::int64_t next = 0;
        if (!stage.push(v, next)) {
          have = false;
          break;
        }
        v = next;
      }
      if (!have) continue;
      v = fx::requantize(v, gain_log2, cfg.hbf_in_format,
                         fx::Rounding::kRoundNearest, fx::Overflow::kSaturate,
                         &ec);
      std::int64_t h = 0;
      if (!hbf.push(v, h)) continue;
      std::int64_t e = 0;
      if (eq.push(scaler.push(h), e)) out.push_back(e);
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * codes.size());
}
BENCHMARK(BM_DecimationChainPush);

// --- Multi-channel runtime: SoA lockstep vs N serial chain runs ---------
//
// Both legs are forced to one worker (DSADC_RUNTIME_THREADS=1), so the
// runtime_soa_*_speedup ratios measure only the SoA kernel win (lockstep
// lanes, inlined requantize, no per-stage bookkeeping) and stay
// machine-independent: CI gates them via bench_diff regardless of the
// runner's core count.

const std::vector<std::vector<std::int32_t>>& channel_codes(
    std::size_t channels) {
  static std::map<std::size_t, std::vector<std::vector<std::int32_t>>> cache;
  auto& blocks = cache[channels];
  if (blocks.empty()) {
    const auto& codes = paper_codes();
    const std::vector<std::int32_t> block(codes.begin(),
                                          codes.begin() + (1 << 13));
    blocks.assign(channels, block);
  }
  return blocks;
}

void BM_MultiChannelSerial(benchmark::State& state) {
  const auto channels = static_cast<std::size_t>(state.range(0));
  const auto& blocks = channel_codes(channels);
  std::vector<decim::DecimationChain> chains;
  for (std::size_t c = 0; c < channels; ++c) {
    chains.emplace_back(decim::paper_chain_config());
  }
  for (auto _ : state) {
    for (std::size_t c = 0; c < channels; ++c) {
      chains[c].reset();
      benchmark::DoNotOptimize(chains[c].process(blocks[c]));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(channels * (1 << 13)));
}
BENCHMARK(BM_MultiChannelSerial)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Repetitions(kReps)
    ->MinTime(kRepMinTime);

void BM_MultiChannelSoA(benchmark::State& state) {
  ::setenv("DSADC_RUNTIME_THREADS", "1", 1);
  const auto channels = static_cast<std::size_t>(state.range(0));
  const auto& blocks = channel_codes(channels);
  runtime::MultiChannelRuntime rt(decim::paper_chain_config(), channels);
  std::vector<std::vector<std::int64_t>> out;
  for (auto _ : state) {
    rt.reset();
    rt.process_into(blocks, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(channels * (1 << 13)));
}
BENCHMARK(BM_MultiChannelSoA)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Repetitions(kReps)
    ->MinTime(kRepMinTime);

void BM_HbfDesign(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        design::design_saramaki_hbf(3, 6, 0.2125, 24, 0));
  }
}
BENCHMARK(BM_HbfDesign);

void BM_NtfSynthesis(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(mod::synthesize_ntf(5, 16.0, 3.0, true));
  }
}
BENCHMARK(BM_NtfSynthesis);

void BM_FullDesignFlow(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::DesignFlow::design(
        mod::paper_modulator_spec(), mod::paper_decimator_spec()));
  }
}
BENCHMARK(BM_FullDesignFlow)->Unit(benchmark::kMillisecond);

void BM_RtlSimCic(benchmark::State& state) {
  const auto stage = rtl::build_cic(design::CicSpec{4, 2, 4});
  std::vector<std::int64_t> in(paper_codes().begin(), paper_codes().end());
  for (auto _ : state) {
    rtl::Simulator sim(stage.module);
    benchmark::DoNotOptimize(sim.run({{stage.in, in}}));
  }
  state.SetItemsProcessed(state.iterations() * in.size());
}
BENCHMARK(BM_RtlSimCic)->Repetitions(kReps)->MinTime(kRepMinTime);

void BM_RtlSimCicCompiled(benchmark::State& state) {
  const auto stage = rtl::build_cic(design::CicSpec{4, 2, 4});
  std::vector<std::int64_t> in(paper_codes().begin(), paper_codes().end());
  rtl::CompiledSimulator sim(stage.module);  // elaborate once, like hardware
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run({{stage.in, in}}));
  }
  state.SetItemsProcessed(state.iterations() * in.size());
}
BENCHMARK(BM_RtlSimCicCompiled)->Repetitions(kReps)->MinTime(kRepMinTime);

// Interpreted vs compiled on the flattened paper chain, same stimulus in
// the same process: the ratio of their items/s is the engine speedup
// recorded as rtl_chain_compiled_speedup (machine-independent, gated in
// CI via bench_diff).
void BM_RtlSimChainInterp(benchmark::State& state) {
  const auto chain = rtl::build_chain(decim::paper_chain_config());
  std::vector<std::int64_t> in(paper_codes().begin(),
                               paper_codes().begin() + (1 << 13));
  for (auto _ : state) {
    rtl::Simulator sim(chain.full);
    benchmark::DoNotOptimize(sim.run({{chain.in, in}}));
  }
  state.SetItemsProcessed(state.iterations() * in.size());
}
BENCHMARK(BM_RtlSimChainInterp)->Repetitions(kReps)->MinTime(kRepMinTime);

void BM_RtlSimChainCompiled(benchmark::State& state) {
  const auto chain = rtl::build_chain(decim::paper_chain_config());
  std::vector<std::int64_t> in(paper_codes().begin(),
                               paper_codes().begin() + (1 << 13));
  rtl::CompiledSimulator sim(chain.full);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run({{chain.in, in}}));
  }
  state.SetItemsProcessed(state.iterations() * in.size());
}
BENCHMARK(BM_RtlSimChainCompiled)->Repetitions(kReps)->MinTime(kRepMinTime);

// Compiled engine with activity accounting on, for the power-estimation
// path (toggle counts identical to the interpreted engine's).
void BM_RtlSimChainCompiledActivity(benchmark::State& state) {
  const auto chain = rtl::build_chain(decim::paper_chain_config());
  std::vector<std::int64_t> in(paper_codes().begin(),
                               paper_codes().begin() + (1 << 13));
  rtl::CompiledSimulator sim(chain.full);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run({{chain.in, in}}, {.activity = true}));
  }
  state.SetItemsProcessed(state.iterations() * in.size());
}
BENCHMARK(BM_RtlSimChainCompiledActivity)
    ->Repetitions(kReps)
    ->MinTime(kRepMinTime);

// JIT codegen engine on the same chain and stimulus: the tape is emitted
// as straight-line C++, compiled, and dlopen'd. Construction cost (or a
// cache hit) is paid outside the timed loop; the ratio to the tape
// engine is rtl_codegen_speedup. Skipped (not failed) when no toolchain
// is available -- record_speedup then silently omits the ratio.
void BM_RtlSimChainCodegen(benchmark::State& state) {
  const auto chain = rtl::build_chain(decim::paper_chain_config());
  std::vector<std::int64_t> in(paper_codes().begin(),
                               paper_codes().begin() + (1 << 13));
  rtl::CompiledSimOptions opts;
  opts.codegen = rtl::CompiledSimOptions::Codegen::kOn;
  rtl::CompiledSimulator sim(chain.full, opts);
  if (sim.engine() != rtl::SimEngine::kCodegen) {
    state.SkipWithError(("codegen unavailable: " + sim.engine_detail()).c_str());
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run({{chain.in, in}}));
  }
  state.SetItemsProcessed(state.iterations() * in.size());
}
BENCHMARK(BM_RtlSimChainCodegen)->Repetitions(kReps)->MinTime(kRepMinTime);

// Codegen engine with activity accounting (the second entry point, its own
// object): toggle counts identical to the interpreter's, at codegen speed.
// The activity kernel is built on the first activity run, so one untimed
// run pays that compile (or cache hit) before the timed loop.
void BM_RtlSimChainCodegenActivity(benchmark::State& state) {
  const auto chain = rtl::build_chain(decim::paper_chain_config());
  std::vector<std::int64_t> in(paper_codes().begin(),
                               paper_codes().begin() + (1 << 13));
  rtl::CompiledSimOptions opts;
  opts.codegen = rtl::CompiledSimOptions::Codegen::kOn;
  rtl::CompiledSimulator sim(chain.full, opts);
  if (sim.engine() != rtl::SimEngine::kCodegen) {
    state.SkipWithError(("codegen unavailable: " + sim.engine_detail()).c_str());
    return;
  }
  benchmark::DoNotOptimize(sim.run({{chain.in, in}}, {.activity = true}));
  if (sim.activity_engine() != rtl::SimEngine::kCodegen) {
    state.SkipWithError(("codegen activity kernel unavailable: " +
                         sim.activity_engine_detail())
                            .c_str());
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run({{chain.in, in}}, {.activity = true}));
  }
  state.SetItemsProcessed(state.iterations() * in.size());
}
BENCHMARK(BM_RtlSimChainCodegenActivity)
    ->Repetitions(kReps)
    ->MinTime(kRepMinTime);

// Compiled engine on the proof-carrying optimizer's output: same stimulus
// and engine as BM_RtlSimChainCompiled, but the tape is built from the
// optimized netlist (dead nodes gone, constants folded, widths shrunk).
// The ratio to the unoptimized compiled run is rtl_opt_compiled_speedup.
void BM_RtlSimChainCompiledOpt(benchmark::State& state) {
  const auto chain = rtl::build_chain(decim::paper_chain_config());
  const analyze::opt::OptResult opt = analyze::opt::optimize(chain.full);
  std::vector<std::int64_t> in(paper_codes().begin(),
                               paper_codes().begin() + (1 << 13));
  rtl::CompiledSimulator sim(opt.module);
  const rtl::NodeId in_id =
      opt.node_map[static_cast<std::size_t>(chain.in)];
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run({{in_id, in}}));
  }
  state.SetItemsProcessed(state.iterations() * in.size());
}
BENCHMARK(BM_RtlSimChainCompiledOpt)->Repetitions(kReps)->MinTime(kRepMinTime);

// --- Elaboration cost: default heap vs pmr arena -----------------------
//
// Building the full paper chain allocates thousands of pmr vector nodes
// plus name strings; the arena leg reuses one monotonic buffer per
// iteration. The recorded elaborate_arena_ratio (arena/heap items ratio)
// is informational -- allocator throughput is machine-dependent, so the
// name deliberately avoids the CI-gated "speedup" suffix.
void BM_ElaborateChain(benchmark::State& state) {
  const auto cfg = decim::paper_chain_config();
  for (auto _ : state) {
    const rtl::BuiltChain chain = rtl::build_chain(cfg);
    benchmark::DoNotOptimize(chain.full.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ElaborateChain);

void BM_ElaborateChainArena(benchmark::State& state) {
  const auto cfg = decim::paper_chain_config();
  for (auto _ : state) {
    std::pmr::monotonic_buffer_resource arena(1 << 20);
    const rtl::BuiltChain chain = rtl::build_chain(cfg, {.arena = &arena});
    benchmark::DoNotOptimize(chain.full.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ElaborateChainArena);

/// Console reporter that additionally copies each run's timing and
/// items/s into the telemetry record (BENCH_perf_throughput.json). A
/// repeated benchmark records its median over the repetitions, plus the
/// interquartile range relative to that median as
/// <name>.items_per_second_rel_iqr.
class TelemetryReporter : public benchmark::ConsoleReporter {
 public:
  explicit TelemetryReporter(obs::BenchReport* report) : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration) continue;
      if (run.error_occurred) {
        ok_ = false;
        continue;
      }
      const std::string name = record_name(run.benchmark_name());
      const double per_iter_s =
          run.iterations > 0
              ? run.real_accumulated_time / static_cast<double>(run.iterations)
              : run.real_accumulated_time;
      auto& leg = legs_[name];
      leg.s_per_iter.push_back(per_iter_s);
      report_->set(name + ".real_s_per_iter", median(leg.s_per_iter));
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) {
        leg.items_per_second.push_back(it->second.value);
        const double med = median(leg.items_per_second);
        report_->set(name + ".items_per_second", med);
        items_per_second_[name] = med;
        if (leg.items_per_second.size() > 1 && med > 0.0) {
          report_->set(name + ".items_per_second_rel_iqr",
                       (quantile(leg.items_per_second, 0.75) -
                        quantile(leg.items_per_second, 0.25)) /
                           med);
        }
      }
    }
  }

  bool ok() const { return ok_; }
  /// items/s by benchmark name (the median when repeated), for
  /// cross-benchmark ratios.
  const std::map<std::string, double>& items_per_second() const {
    return items_per_second_;
  }

 private:
  struct Leg {
    std::vector<double> s_per_iter;
    std::vector<double> items_per_second;
  };

  /// The benchmark name without the "/min_time:T" and "/repeats:N"
  /// segments repeated benchmarks carry, so record keys stay stable.
  static std::string record_name(const std::string& full) {
    std::string out;
    std::size_t pos = 0;
    while (pos <= full.size()) {
      const std::size_t end = std::min(full.find('/', pos), full.size());
      const std::string seg = full.substr(pos, end - pos);
      if (seg.rfind("min_time:", 0) != 0 && seg.rfind("repeats:", 0) != 0) {
        if (!out.empty()) out += '/';
        out += seg;
      }
      pos = end + 1;
    }
    return out;
  }

  /// Linear-interpolated quantile of `v` (copied: callers keep run order).
  static double quantile(std::vector<double> v, double q) {
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
  }
  static double median(const std::vector<double>& v) {
    return quantile(v, 0.5);
  }

  obs::BenchReport* report_;
  std::map<std::string, Leg> legs_;
  std::map<std::string, double> items_per_second_;
  bool ok_ = true;
};

/// Record `num/den` as `key` and require it to clear `floor`; silently
/// skipped when either benchmark did not run (e.g. --benchmark_filter).
bool record_speedup(obs::BenchReport& report, const TelemetryReporter& r,
                    const char* key, const char* num, const char* den,
                    double floor) {
  const auto& ips = r.items_per_second();
  const auto n = ips.find(num);
  const auto d = ips.find(den);
  if (n == ips.end() || d == ips.end() || d->second <= 0.0) return true;
  const double speedup = n->second / d->second;
  report.set(key, speedup);
  if (speedup < floor) {
    std::fprintf(stderr, "bench_perf_throughput: %s = %.2fx below floor %.2fx\n",
                 key, speedup, floor);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  obs::BenchReport report("perf_throughput");
  // Repetitions of all benchmarks run in a random interleaved order, so the
  // two legs of a ratio see the same machine conditions instead of
  // consecutive time slices. A later command-line flag overrides this.
  std::vector<char*> args(argv, argv + argc);
  char interleave[] = "--benchmark_enable_random_interleaving=true";
  args.insert(args.begin() + 1, interleave);
  int nargs = static_cast<int>(args.size());
  benchmark::Initialize(&nargs, args.data());
  if (benchmark::ReportUnrecognizedArguments(nargs, args.data())) {
    return report.finish(false);
  }
  TelemetryReporter reporter(&report);
  const std::size_t ran = benchmark::RunSpecifiedBenchmarks(&reporter);
  report.set("benchmarks_run", static_cast<double>(ran));

  // Machine-independent engine/kernel speedups, both legs measured in this
  // run. The floors are the acceptance bars; bench_diff gates the recorded
  // ratios against bench/baseline in CI.
  bool ok = ran > 0 && reporter.ok();
  ok &= record_speedup(report, reporter, "rtl_chain_compiled_speedup",
                       "BM_RtlSimChainCompiled", "BM_RtlSimChainInterp", 5.0);
  ok &= record_speedup(report, reporter, "rtl_cic_compiled_speedup",
                       "BM_RtlSimCicCompiled", "BM_RtlSimCic", 1.0);
  // JIT codegen over the tape interpreter (measured ~15x on the paper
  // chain; the floor leaves headroom for slower machines). Silently
  // omitted when the codegen benchmark skipped (no toolchain).
  ok &= record_speedup(report, reporter, "rtl_codegen_speedup",
                       "BM_RtlSimChainCodegen", "BM_RtlSimChainCompiled",
                       5.0);
  // Activity accounting keeps most of the tape engine's throughput: the
  // ratio is < 1 by construction (extra XOR/popcount per update), and the
  // floor guards against the accounting path regressing to the pre-SWAR
  // per-bit loop (which measured ~0.4x).
  ok &= record_speedup(report, reporter, "rtl_compiled_activity_speedup",
                       "BM_RtlSimChainCompiledActivity",
                       "BM_RtlSimChainCompiled", 0.45);
  ok &= record_speedup(report, reporter, "decim_chain_batched_speedup",
                       "BM_DecimationChain", "BM_DecimationChainPush", 1.5);
  // Price of observability on the scalar chain: obs-on over obs-off items/s
  // (1.0 = free). The fx counters are per-block tallies and the stage
  // metrics cached handles; what remains is mostly the per-stage
  // signal_stats pass.
  // Measured 0.76-0.92 (median 0.88); the floor catches a per-sample
  // shared atomic or registry lookup creeping back into the chain.
  ok &= record_speedup(report, reporter, "obs_chain_on_off_ratio",
                       "BM_DecimationChain", "BM_DecimationChainObsOff", 0.7);
  // Channels-scaling: SoA lockstep runtime vs N serial chain runs, both
  // single-worker (see the benchmark comments). The 16-channel ratio is
  // the acceptance bar for the runtime; 4 and 64 document the scaling
  // curve ends. The serial leg is the scalar chain, whose block kernels
  // requantize inline with per-block event tallies; medians of 10
  // interleaved repetitions measured 1.11-1.51x (median 1.48x) at 4
  // channels and 3.65-4.42x (3.98x) at 16 on a shared 4-core AVX-512 VM.
  ok &= record_speedup(report, reporter, "runtime_soa_4ch_speedup",
                       "BM_MultiChannelSoA/4", "BM_MultiChannelSerial/4", 1.0);
  ok &= record_speedup(report, reporter, "runtime_soa_16ch_speedup",
                       "BM_MultiChannelSoA/16", "BM_MultiChannelSerial/16",
                       3.0);
  // 64 channels is where the SoA layout pays most; against the same
  // serial leg it measured 4.1-5.3x (median 4.8x) with AVX-512, so 3.5
  // still catches a real kernel regression.
  ok &= record_speedup(report, reporter, "runtime_soa_64ch_speedup",
                       "BM_MultiChannelSoA/64", "BM_MultiChannelSerial/64",
                       3.5);
  // The optimized tape must never be slower than the unoptimized one; the
  // floor is lenient (0.98) because the win is modest -- the tape is
  // already const-hoisted -- and timer noise on small deltas is real.
  ok &= record_speedup(report, reporter, "rtl_opt_compiled_speedup",
                       "BM_RtlSimChainCompiledOpt", "BM_RtlSimChainCompiled",
                       0.98);
  ok &= record_speedup(report, reporter, "elaborate_arena_ratio",
                       "BM_ElaborateChainArena", "BM_ElaborateChain", 0.5);

  // Deterministic structural metrics: scheduled tape ops per period on the
  // paper chain, before and after the proof-carrying optimizer. Unlike the
  // timing ratios these are exact and machine-independent; the optimized
  // tape being strictly shorter is a hard acceptance bar, and the ratio is
  // gated in CI (bench_diff --gate speedup) like the engine speedups.
  {
    const auto chain = rtl::build_chain(decim::paper_chain_config());
    const analyze::opt::OptResult opt = analyze::opt::optimize(chain.full);
    const std::size_t unopt_ops =
        rtl::CompiledSimulator(chain.full).scheduled_ops_per_period();
    const std::size_t opt_ops =
        rtl::CompiledSimulator(opt.module).scheduled_ops_per_period();
    report.set("rtl_tape_ops", static_cast<double>(unopt_ops));
    report.set("rtl_opt_tape_ops", static_cast<double>(opt_ops));
    if (opt_ops < unopt_ops && opt_ops > 0) {
      report.set("rtl_opt_tape_speedup",
                 static_cast<double>(unopt_ops) / static_cast<double>(opt_ops));
    } else {
      std::fprintf(stderr,
                   "bench_perf_throughput: optimized tape (%zu ops) not "
                   "shorter than unoptimized (%zu ops)\n",
                   opt_ops, unopt_ops);
      ok = false;
    }
  }
  return report.finish(ok);
}
