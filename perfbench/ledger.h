// Per-layer ledger: each module's public functions replayed on the
// workload's own generated inputs and timed from outside. ledger.json maps
// every metric to the end-to-end metric and workload it should move.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bench.h"
#include "flow.h"
#include "src/decimator/chain.h"
#include "src/runtime/session.h"

namespace perfbench {

/// One SessionRuntime job of the workload's job sequence; `block` indexes
/// LedgerInputs::blocks for kData.
struct ReplayJob {
  std::uint32_t session = 0;
  dsadc::runtime::SessionOp op = dsadc::runtime::SessionOp::kData;
  std::shared_ptr<const dsadc::decim::ChainConfig> config;
  bool lockstep = false;
  std::size_t block = 0;
  /// Open-loop replay: when the job is due, relative to the replay start.
  /// -1 for a closed-loop replay (4 jobs in flight per session, the
  /// serve_lockstep window).
  std::int64_t due_ns = -1;
};

struct LedgerInputs {
  /// The workload's DATA blocks (modulator codes).
  std::vector<std::vector<std::int32_t>> blocks;
  /// Serialized ChainConfigs the workload sends.
  std::vector<std::vector<std::uint8_t>> config_blobs;
  std::vector<ReplayJob> jobs;
  /// Throughput of the run's untraced pass; 0 when the workload serves
  /// nothing.
  double service_mcodes_s = 0.0;
};

/// The paper chain, serialized as OPEN/CONFIG carry it.
std::vector<std::vector<std::uint8_t>> paper_config_blobs();
/// `sessions` lockstep sessions on preset 0, `rounds` equal-length DATA
/// blocks each (taken round-robin from `blocks`), then CLOSE; a
/// closed-loop job sequence.
std::vector<ReplayJob> lockstep_jobs(
    const std::vector<std::vector<std::int32_t>>& blocks, std::size_t sessions,
    std::size_t rounds);

/// Fills every per-layer metric that is not a by-product of the traced
/// workload pass (trace overhead, service counts and generator health are
/// set by the workload). `signoff` holds a compiled paper netlist whose
/// cold build took `codegen_compile_s`. The core.* step times come from
/// the sweeps in `flow_trace` (with `remez_per_sweep`), or, when it is
/// null, from one traced sweep run here.
void measure_ledger(const Args& args, const LedgerInputs& in, Signoff& signoff,
                    double codegen_compile_s, const Tracer* flow_trace,
                    double remez_per_sweep, Outcome& out);

}  // namespace perfbench
