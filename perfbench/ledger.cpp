#include "ledger.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "src/analyze/opt/opt.h"
#include "src/core/flow.h"
#include "src/decimator/cic.h"
#include "src/decimator/fir.h"
#include "src/decimator/hbf.h"
#include "src/decimator/scaler.h"
#include "src/dsp/freqz.h"
#include "src/dsp/spectrum.h"
#include "src/filterdesign/cic.h"
#include "src/filterdesign/equalizer.h"
#include "src/filterdesign/saramaki.h"
#include "src/modulator/dsm.h"
#include "src/modulator/ntf.h"
#include "src/modulator/realize.h"
#include "src/obs/obs.h"
#include "src/rtl/sim.h"
#include "src/rtl/verilog.h"
#include "src/runtime/multichannel.h"
#include "src/service/client.h"
#include "src/service/server.h"
#include "src/service/wire.h"
#include "src/synth/estimate.h"

namespace perfbench {
namespace {

using namespace dsadc;

constexpr std::size_t kLanes = 32;
/// Closed-loop session replay: jobs in flight per session.
constexpr std::size_t kReplayWindow = 4;
const char* const kStages[] = {"sinc4_1", "sinc4_2", "sinc6",
                               "hbf",     "scaler",  "equalizer"};

/// Median wall seconds of `reps` calls of fn().
template <typename Fn>
double median_s(int reps, Fn&& fn) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    v.push_back(seconds_since(t0));
  }
  return summarize(std::move(v)).median;
}

/// Median wall seconds of `reps` in-place passes over fresh copies of
/// `data` (the copy is not timed).
template <typename Fn>
double median_inplace_s(int reps, const std::vector<std::int64_t>& data, Fn&& fn) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) {
    std::vector<std::int64_t> copy = data;
    const auto t0 = Clock::now();
    fn(copy);
    v.push_back(seconds_since(t0));
  }
  return summarize(std::move(v)).median;
}

/// `lanes` streams of `frames` codes cut from the workload's blocks laid
/// end to end (wrapping).
std::vector<std::vector<std::int32_t>> lane_streams(const LedgerInputs& in,
                                                    std::size_t lanes,
                                                    std::size_t frames) {
  std::vector<std::int32_t> flat;
  for (const auto& b : in.blocks) {
    if (flat.size() >= lanes * frames) break;
    flat.insert(flat.end(), b.begin(), b.end());
  }
  std::vector<std::vector<std::int32_t>> out(lanes);
  std::size_t pos = 0;
  for (auto& lane : out) {
    lane.resize(frames);
    for (auto& v : lane) {
      v = flat[pos];
      pos = (pos + 1) % flat.size();
    }
  }
  return out;
}

/// Frame-major, channel-interleaved SoA layout of the bank kernels.
std::vector<std::int64_t> interleave(
    const std::vector<std::vector<std::int64_t>>& rows) {
  const std::size_t lanes = rows.size();
  const std::size_t frames = rows.front().size();
  std::vector<std::int64_t> data(lanes * frames);
  for (std::size_t l = 0; l < lanes; ++l) {
    for (std::size_t f = 0; f < frames; ++f) data[f * lanes + l] = rows[l][f];
  }
  return data;
}

int cic_gain_log2(const decim::ChainConfig& cfg) {
  int g = 0;
  for (const auto& s : cfg.cic_stages) {
    g += s.order * static_cast<int>(std::lround(std::log2(s.decimation)));
  }
  return g;
}

/// Each stage's input stream, from one chain run with probes: the Sinc
/// stages see the codes and each other's outputs, the HBF the CIC output
/// renormalized as the chain does, then scaler and equalizer in turn.
std::vector<std::vector<std::int64_t>> stage_inputs(
    const decim::ChainConfig& cfg, const std::vector<std::int32_t>& codes) {
  decim::DecimationChain chain(cfg);
  std::vector<decim::StageProbe> probes;
  (void)chain.process(codes, &probes);
  std::vector<std::vector<std::int64_t>> in;
  for (std::size_t i = 0; i + 1 < probes.size(); ++i) in.push_back(probes[i].samples);
  const int gain = cic_gain_log2(cfg);
  for (auto& v : in[cfg.cic_stages.size()]) {
    v = fx::requantize(v, gain, cfg.hbf_in_format, fx::Rounding::kRoundNearest,
                       fx::Overflow::kSaturate);
  }
  return in;
}

void measure_service(const Args& args, const LedgerInputs& in, Outcome& out) {
  std::vector<service::Frame> frames;
  for (std::size_t i = 0; i < std::min<std::size_t>(64, in.blocks.size()); ++i) {
    service::Frame f;
    f.type = service::FrameType::kData;
    f.channel = static_cast<std::uint32_t>(i);
    f.seq = static_cast<std::uint32_t>(i);
    f.payload = service::encode_codes(in.blocks[i]);
    frames.push_back(std::move(f));
  }
  std::vector<std::vector<std::uint8_t>> wire(frames.size());
  const double enc = median_s(9, [&] {
    for (std::size_t i = 0; i < frames.size(); ++i) {
      wire[i] = service::encode_frame(frames[i]);
    }
  });
  bool scanned = true;
  const double scan = median_s(9, [&] {
    for (const auto& w : wire) {
      service::FrameView v;
      std::size_t consumed = 0;
      scanned = service::scan_frame(w.data(), w.size(), &v, &consumed, nullptr) ==
                    service::ScanResult::kFrame &&
                scanned;
    }
  });
  const auto n = static_cast<double>(frames.size());
  out.set("service.wire.encode_ns_per_frame", enc / n * 1e9, "ns");
  out.set("service.wire.scan_ns_per_frame", scan / n * 1e9, "ns");
  ++out.attempted;
  if (!scanned) ++out.failed;

  bool decoded = true;
  const double dec = median_s(9, [&] {
    for (const auto& blob : in.config_blobs) {
      decim::ChainConfig cfg;
      decoded = service::decode_chain_config(blob, &cfg) && decoded;
    }
  });
  out.set("service.wire.config_decode_us",
          dec / static_cast<double>(in.config_blobs.size()) * 1e6, "us");
  ++out.attempted;
  if (!decoded) ++out.failed;

  // OPEN -> ACK on an idle server: net, event loop and session lifecycle,
  // no DSP.
  service::ServerOptions opts;
  opts.unix_path = args.work_dir + "/ack-" + std::to_string(::getpid()) + ".sock";
  std::vector<double> us;
  bool acked = true;
  {
    service::Server server(opts);
    server.start();
    auto client = service::Client::connect_unix(opts.unix_path);
    const auto timeout = std::chrono::milliseconds(5000);
    for (std::size_t i = 0; i < 200 && acked; ++i) {
      const auto t0 = Clock::now();
      acked = client->open(7, 0) && client->wait_ack_count(7, 2 * i + 1, timeout);
      us.push_back(seconds_since(t0) * 1e6);
      acked = acked && client->close_channel(7) &&
              client->wait_ack_count(7, 2 * i + 2, timeout);
    }
    client.reset();
    server.stop();
  }
  std::filesystem::remove(opts.unix_path);
  out.set("service.ack_rtt_us_p50", summarize(us).median, "us");
  ++out.attempted;
  if (!acked) ++out.failed;
}

void measure_runtime(const LedgerInputs& in, const decim::ChainConfig& cfg,
                     Outcome& out) {
  // SessionRuntime::submit -> done on the workload's job sequence, paced
  // as the workload paces its frames: open loop from each job's due time,
  // or closed loop with a window of jobs in flight per session.
  {
    runtime::SessionRuntime rt{runtime::SessionRuntime::Options{}};
    const std::size_t n = in.jobs.size();
    std::size_t sessions = 0;
    for (const ReplayJob& j : in.jobs) sessions = std::max<std::size_t>(sessions, j.session + 1);
    std::vector<std::int64_t> from_ns(n, 0), done_ns(n, 0);
    std::unique_ptr<std::atomic<std::size_t>[]> inflight(
        new std::atomic<std::size_t>[sessions]());
    std::atomic<std::size_t> bad{0};
    double codes = 0.0;
    const auto submit = [&](std::size_t i) {
      const ReplayJob& j = in.jobs[i];
      runtime::SessionJob job;
      job.session = j.session;
      job.op = j.op;
      job.config = j.config;
      job.lockstep = j.lockstep;
      if (j.op == runtime::SessionOp::kData) {
        job.codes = in.blocks[j.block];
        codes += static_cast<double>(job.codes.size());
      }
      std::atomic<std::size_t>* slot = &inflight[j.session];
      job.done = [&done_ns, &bad, slot, i](runtime::SessionResult r) {
        done_ns[i] = now_ns();
        if (r.status != runtime::SessionStatus::kOk) bad.fetch_add(1);
        slot->fetch_sub(1, std::memory_order_release);
      };
      slot->fetch_add(1, std::memory_order_acq_rel);
      if (from_ns[i] == 0) from_ns[i] = now_ns();
      if (!rt.submit(std::move(job))) {
        bad.fetch_add(1);
        slot->fetch_sub(1, std::memory_order_release);
      }
    };
    const std::int64_t start = now_ns();
    if (n > 0 && in.jobs.front().due_ns >= 0) {
      std::vector<std::size_t> order(n);
      for (std::size_t i = 0; i < n; ++i) order[i] = i;
      std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return in.jobs[a].due_ns < in.jobs[b].due_ns;
      });
      for (const std::size_t i : order) {
        from_ns[i] = start + in.jobs[i].due_ns;
        const std::int64_t wait = from_ns[i] - now_ns();
        if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
        submit(i);
      }
    } else {
      std::vector<std::vector<std::size_t>> per(sessions);
      for (std::size_t i = 0; i < n; ++i) per[in.jobs[i].session].push_back(i);
      std::vector<std::size_t> pos(sessions, 0);
      for (std::size_t left = n; left > 0;) {
        bool progress = false;
        for (std::size_t s = 0; s < sessions; ++s) {
          if (pos[s] < per[s].size() &&
              inflight[s].load(std::memory_order_acquire) < kReplayWindow) {
            submit(per[s][pos[s]++]);
            --left;
            progress = true;
          }
        }
        if (!progress) std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
    }
    rt.stop();  // runs every admitted job to completion
    std::vector<double> us;
    std::int64_t last = start;
    for (std::size_t i = 0; i < n; ++i) {
      last = std::max(last, done_ns[i]);
      if (in.jobs[i].op == runtime::SessionOp::kData && done_ns[i] != 0) {
        us.push_back(static_cast<double>(done_ns[i] - from_ns[i]) * 1e-3);
      }
    }
    out.set("runtime.session.done_us_p50", summarize(us).median, "us");
    out.set("runtime.session.done_us_p99", tail_quantile(us, 0.99).value, "us");
    out.set("runtime.session.mcodes_s",
            codes / (static_cast<double>(last - start) * 1e-9) / 1e6, "Mcodes/s");
    out.attempted += n;
    out.failed += bad.load() + static_cast<std::size_t>(
        std::count(done_ns.begin(), done_ns.end(), std::int64_t{0}));
  }

  // ChainBank with 32 lanes.
  {
    const auto lanes = lane_streams(in, kLanes, 8192);
    std::vector<std::vector<std::int64_t>> rows;
    for (const auto& l : lanes) rows.emplace_back(l.begin(), l.end());
    const auto data = interleave(rows);
    runtime::ChainBank bank(cfg, kLanes);
    const double t = median_inplace_s(7, data, [&](auto& d) { bank.process_inplace(d); });
    out.set("runtime.bank.ns_per_code", t / static_cast<double>(data.size()) * 1e9, "ns");
  }

  // MultiChannelRuntime at 256 channels, shipped worker count.
  {
    const auto codes = lane_streams(in, 256, 8192);
    runtime::MultiChannelRuntime mc(cfg, codes.size());
    std::vector<std::vector<std::int64_t>> result;
    mc.process_into(codes, result);  // warm-up: buffers reach steady size
    const double t = median_s(7, [&] { mc.process_into(codes, result); });
    const double mcodes = static_cast<double>(codes.size() * codes.front().size()) / t / 1e6;
    out.set("runtime.multichannel.mcodes_s", mcodes, "Mcodes/s");
    out.set("runtime.service_vs_inprocess", in.service_mcodes_s / mcodes, "ratio");
  }
}

void measure_decimator(const LedgerInputs& in, const decim::ChainConfig& cfg,
                       const Signoff& signoff, Outcome& out) {
  std::vector<std::vector<std::int32_t>> blocks(
      in.blocks.begin(),
      in.blocks.begin() + static_cast<std::ptrdiff_t>(std::min<std::size_t>(64, in.blocks.size())));
  double codes = 0.0;
  for (const auto& b : blocks) codes += static_cast<double>(b.size());

  decim::DecimationChain chain(cfg);
  const auto chain_pass = [&] {
    for (const auto& b : blocks) (void)chain.process(b);
  };
  const double chain_s = median_s(5, chain_pass);
  std::vector<std::vector<std::int64_t>> blocks64;
  for (const auto& b : blocks) blocks64.emplace_back(b.begin(), b.end());
  const double cg_s = median_s(5, [&] {
    for (const auto& b : blocks64) {
      (void)signoff.sim().run({{signoff.sim_input(), std::span<const std::int64_t>(b)}});
    }
  });
  out.set("decimator.chain.ns_per_code", chain_s / codes * 1e9, "ns");
  out.set("decimator.chain_vs_codegen", cg_s / chain_s, "ratio");
  out.set("rtl.codegen_ns_per_code", cg_s / codes * 1e9, "ns");

  // Observability on and off, interleaved in this process.
  {
    const bool was_on = obs::enabled();
    std::vector<double> on, off;
    for (int r = 0; r < 7; ++r) {
      obs::set_enabled(true);
      on.push_back(median_s(1, chain_pass));
      obs::set_enabled(false);
      off.push_back(median_s(1, chain_pass));
    }
    obs::set_enabled(was_on);
    out.set("obs.chain_on_off_ratio", summarize(on).median / summarize(off).median, "ratio");
  }

  // Scalar stages on their probe streams.
  const auto scalar_in = stage_inputs(cfg, lane_streams(in, 1, 65536).front());
  const auto taps = decim::FixedTaps::from_real(cfg.equalizer_taps, cfg.equalizer_frac_bits);
  for (std::size_t s = 0; s < 6; ++s) {
    const auto& x = scalar_in[s];
    double t = 0.0;
    if (s < 3) {
      decim::CicDecimator st(cfg.cic_stages[s]);
      t = median_s(5, [&] { (void)st.process(x); });
    } else if (s == 3) {
      decim::SaramakiHbfDecimator st(cfg.hbf, cfg.hbf_in_format, cfg.hbf_out_format,
                                     cfg.hbf_coeff_frac_bits);
      t = median_s(5, [&] { (void)st.process(x); });
    } else if (s == 4) {
      const decim::ScalingStage st(cfg.scale, cfg.hbf_out_format, cfg.scaler_out_format, 14, 8);
      t = median_s(5, [&] { (void)st.process(x); });
    } else {
      decim::FirDecimator st(taps, 1, cfg.scaler_out_format, cfg.output_format);
      t = median_s(5, [&] { (void)st.process(x); });
    }
    out.set(std::string("decimator.stage.") + kStages[s] + ".ns_per_sample",
            t / static_cast<double>(x.size()) * 1e9, "ns");
  }

  // Bank stages, 32 lanes, each on its own lane's probe streams.
  std::vector<std::vector<std::vector<std::int64_t>>> per_stage(6);
  for (const auto& lane : lane_streams(in, kLanes, 8192)) {
    auto ins = stage_inputs(cfg, lane);
    for (std::size_t s = 0; s < 6; ++s) per_stage[s].push_back(std::move(ins[s]));
  }
  for (std::size_t s = 0; s < 6; ++s) {
    const auto data = interleave(per_stage[s]);
    double t = 0.0;
    if (s < 3) {
      decim::CicDecimatorBank st(cfg.cic_stages[s], kLanes);
      t = median_inplace_s(7, data, [&](auto& d) { st.process_inplace(d); });
    } else if (s == 3) {
      decim::SaramakiHbfBank st(cfg.hbf, kLanes, cfg.hbf_in_format, cfg.hbf_out_format,
                                cfg.hbf_coeff_frac_bits);
      t = median_inplace_s(7, data, [&](auto& d) { st.process_inplace(d); });
    } else if (s == 4) {
      const decim::ScalingStage st(cfg.scale, cfg.hbf_out_format, cfg.scaler_out_format, 14, 8);
      t = median_inplace_s(7, data, [&](auto& d) { st.process_inplace(d); });
    } else {
      decim::FirDecimatorBank st(taps, 1, kLanes, cfg.scaler_out_format, cfg.output_format);
      t = median_inplace_s(7, data, [&](auto& d) { st.process_inplace(d); });
    }
    out.set(std::string("decimator.bank.") + kStages[s] + ".ns_per_sample",
            t / static_cast<double>(data.size()) * 1e9, "ns");
  }
}

void measure_design(Signoff& signoff, double codegen_compile_s,
                    const Tracer* flow_trace, double remez_per_sweep,
                    Outcome& out) {
  // DesignFlow steps, per sweep, from the sweep spans.
  Tracer own;
  if (flow_trace == nullptr) {
    obs::Counter& remez = obs::Registry::instance().counter("remez.iterations");
    const std::uint64_t r0 = remez.value();
    std::vector<std::pair<std::int64_t, double>> frame_ms;
    std::uint64_t exact = 0;
    (void)run_sweep(signoff, 0, &own, frame_ms, exact, out);
    remez_per_sweep = static_cast<double>(remez.value() - r0);
    flow_trace = &own;
  }
  for (const char* step : {"core.design", "core.verify", "core.generate_rtl", "core.synthesize"}) {
    std::vector<double> per_sweep;
    for (const auto& [id, s] : flow_trace->totals_by_id(step)) per_sweep.push_back(s);
    out.set(std::string(step) + "_s", summarize(per_sweep).median, "s");
  }
  out.set("filterdesign.remez_iterations", remez_per_sweep, "count");

  const auto& specs = flow_specs();
  const auto nspec = static_cast<double>(specs.size());
  out.set("modulator.ntf_s", median_s(5, [&] {
            for (const auto& s : specs) (void)mod::synthesize_ntf(s.m.order, s.m.osr, s.m.obg, true);
          }) / nspec, "s");
  const FlowSpec& lte = specs.front();
  const auto ciff = mod::realize_ciff(mod::synthesize_ntf(lte.m.order, lte.m.osr, lte.m.obg, true));
  {
    const auto u = mod::coherent_sine(1 << 16, lte.tone_hz(), lte.m.sample_rate_hz, lte.m.msa);
    mod::CiffModulator m(ciff, lte.m.quantizer_bits);
    const double t = median_s(3, [&] {
      m.reset();
      (void)m.run(u);
    });
    out.set("modulator.sim_ns_per_sample", t / static_cast<double>(u.size()) * 1e9, "ns");
  }
  out.set("filterdesign.hbf_design_s", median_s(3, [&] {
            for (const auto& s : specs) {
              const double fp = 0.5 - s.d.stopband_edge_hz / (2.0 * s.d.output_rate_hz);
              (void)design::design_saramaki_hbf_auto(fp, 90.0, 24);
            }
          }) / nspec, "s");

  const decim::ChainConfig cfg = decim::paper_chain_config();
  {
    const auto stages = cfg.cic_stages;
    const auto hbf_taps = cfg.hbf.taps;
    const auto droop = [stages, hbf_taps](double f) {
      double mag = 1.0;
      double ratio = 16.0;
      for (const auto& s : stages) {
        mag *= design::cic_magnitude(s, f / ratio);
        ratio /= s.decimation;
      }
      return mag * std::abs(dsp::fir_response_at(hbf_taps, f / ratio));
    };
    out.set("filterdesign.equalizer_design_s",
            median_s(3, [&] { (void)design::design_droop_equalizer(65, droop, 0.4999); }), "s");
  }

  // The SNR measurement DesignFlow::verify makes on the LTE-20 output.
  {
    const auto u = mod::coherent_sine(1 << 17, lte.tone_hz(), lte.m.sample_rate_hz, lte.m.msa);
    mod::CiffModulator m(ciff, lte.m.quantizer_bits);
    const auto dsm = m.run(u);
    decim::DecimationChain chain(cfg);
    const auto raw = chain.process(dsm.codes);
    std::vector<double> x;
    for (std::size_t i = 512; i < raw.size(); ++i) x.push_back(fx::to_double(raw[i], cfg.output_format));
    out.set("dsp.tone_snr_s", median_s(5, [&] {
              (void)dsp::measure_tone_snr(x, chain.output_rate_hz(), lte.d.passband_edge_hz,
                                          dsp::WindowKind::kKaiser, 8, 8, 22.0);
            }), "s");
  }

  const rtl::BuiltChain built = rtl::build_chain(cfg);
  out.set("rtl.build_chain_s", median_s(5, [&] { (void)rtl::build_chain(cfg); }), "s");
  out.set("rtl.emit_verilog_s", median_s(5, [&] { (void)rtl::emit_verilog(built.full); }), "s");
  out.set("rtl.tape_ops", static_cast<double>(signoff.sim().scheduled_ops_per_period()), "count");
  out.set("rtl.codegen_compile_s", codegen_compile_s, "s");
  {
    analyze::opt::OptResult opt;
    out.set("analyze.optimize_s", median_s(5, [&] { opt = analyze::opt::optimize(built.full); }), "s");
    out.set("analyze.nodes_removed",
            static_cast<double>(built.full.size() - opt.module.size()), "count");
  }

  // Per-stage interpreted activity simulation and power estimate, driven
  // the way DesignFlow::synthesize drives them.
  {
    const auto u = mod::coherent_sine(1 << 15, lte.tone_hz(), lte.m.sample_rate_hz, lte.m.msa);
    mod::CiffModulator m(ciff, lte.m.quantizer_bits);
    const auto ins = stage_inputs(cfg, m.run(u).codes);
    const synth::CellLibrary lib = synth::default_45nm();
    double sim_s = 0.0, est_s = 0.0, ticks = 0.0;
    for (std::size_t i = 0; i < built.stages.size(); ++i) {
      const rtl::BuiltStage& st = built.stages[i];
      rtl::Simulator sim(st.module);
      auto t0 = Clock::now();
      const rtl::SimResult run = sim.run({{st.in, std::span<const std::int64_t>(ins[i])}});
      sim_s += seconds_since(t0);
      ticks += static_cast<double>(run.activity.base_ticks);
      t0 = Clock::now();
      (void)synth::estimate(st.module, run.activity, lte.m.sample_rate_hz, lib, st.options);
      est_s += seconds_since(t0);
    }
    out.set("rtl.interp_sim_ns_per_tick", sim_s / ticks * 1e9, "ns");
    out.set("synth.estimate_s", est_s, "s");
  }
}

}  // namespace

std::vector<std::vector<std::uint8_t>> paper_config_blobs() {
  return {service::encode_chain_config(decim::paper_chain_config())};
}

std::vector<ReplayJob> lockstep_jobs(
    const std::vector<std::vector<std::int32_t>>& blocks, std::size_t sessions,
    std::size_t rounds) {
  const auto cfg = service::preset_config(0);
  std::vector<ReplayJob> jobs;
  for (std::size_t s = 0; s < sessions; ++s) {
    jobs.push_back(ReplayJob{static_cast<std::uint32_t>(s), runtime::SessionOp::kOpen, cfg, true, 0});
  }
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t s = 0; s < sessions; ++s) {
      jobs.push_back(ReplayJob{static_cast<std::uint32_t>(s), runtime::SessionOp::kData,
                               nullptr, false, (s + r) % blocks.size()});
    }
  }
  for (std::size_t s = 0; s < sessions; ++s) {
    jobs.push_back(ReplayJob{static_cast<std::uint32_t>(s), runtime::SessionOp::kClose, nullptr, false, 0});
  }
  return jobs;
}

void measure_ledger(const Args& args, const LedgerInputs& in, Signoff& signoff,
                    double codegen_compile_s, const Tracer* flow_trace,
                    double remez_per_sweep, Outcome& out) {
  const decim::ChainConfig cfg = decim::paper_chain_config();
  measure_service(args, in, out);
  measure_runtime(in, cfg, out);
  measure_decimator(in, cfg, signoff, out);
  measure_design(signoff, codegen_compile_s, flow_trace, remez_per_sweep, out);
}

}  // namespace perfbench
