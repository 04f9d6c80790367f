// JIT codegen backend for the compiled RTL simulator.
//
// The tape engine in compiled_sim.cpp dispatches every op through a
// switch; on the paper chain that costs ~7 cycles per op, most of it
// dispatch and operand indirection. This backend emits the per-phase op
// tape as straight-line C++ once per netlist -- every op inlined, every
// operand slot a local variable, wrap shifts and requantizer constants
// folded into literals -- compiles it with the system C++ compiler into a
// shared object, and `dlopen`s the result. Elaboration splits in two:
//
//   * emit_source() renders the elaborated tape into a self-contained
//     translation unit holding exactly one extern "C" entry point:
//     `dsadc_cg_run` (pure dataflow) or `dsadc_cg_run_activity` (per-node
//     Hamming-toggle accounting), mirroring the tape engine's two modes.
//     Each entry point is its own source and its own cached object: the
//     activity kernel compiles about five times slower than the plain one,
//     and most netlists never run it, so CompiledSimulator builds the
//     plain kernel at construction and the activity kernel on the first
//     activity run;
//   * build_kernel() drives the toolchain: content-hash cache lookup
//     (FNV-1a over compiler identity + source) under
//     DSADC_CODEGEN_CACHE_DIR, an atomic write-compile-rename on miss,
//     eviction + one recompile when a cached .so fails to load, and
//     dlopen/dlsym of the entry point.
//
// Every failure mode -- no compiler on PATH, compile error, cache dir not
// writable, unloadable object, netlist shapes the emitter refuses
// (runtime-throwing requant shifts, oversized tapes) -- degrades to the
// tape interpreter; CompiledSimulator records the reason in
// engine_detail(), or activity_engine_detail() for the activity kernel.
// Environment knobs:
//
//   DSADC_CODEGEN           on/1 enables codegen for kAuto constructions;
//                           off/0 force-disables it even for kOn.
//   DSADC_CODEGEN_CACHE_DIR cache directory (default $TMPDIR/dsadc-codegen).
//   DSADC_CODEGEN_CXX       compiler override; a bogus path simulates a
//                           compiler-less host (tests use /nonexistent).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

namespace dsadc::rtl {
class CompiledSimulator;
}  // namespace dsadc::rtl

namespace dsadc::rtl::codegen {

/// The two entry points; each is emitted, compiled and cached on its own.
enum class Entry {
  kRun,          ///< dsadc_cg_run: pure dataflow
  kRunActivity,  ///< dsadc_cg_run_activity: plus per-node toggle counts
};

/// The extern "C" symbol `entry` is emitted under.
const char* entry_symbol(Entry entry);

/// A loaded kernel: the dlopen handle plus its one resolved entry point.
/// The generated functions own no state; all buffers are caller-provided,
/// so one kernel can serve any number of concurrent run() calls.
class CompiledKernel {
 public:
  /// Entry::kRun signature. `in` holds one pointer per kInput node (aux
  /// order), `out` one pointer per kOutput node; the kernel consumes and
  /// produces exactly ceil(ticks / clock_div) samples per stream.
  using RunFn = void (*)(std::uint64_t ticks,
                         const std::int64_t* const* in,
                         std::int64_t* const* out);
  /// Entry::kRunActivity signature: same contract plus per-node Hamming
  /// toggle accumulation into `toggles` (node-id indexed, caller-zeroed).
  /// Update counts are analytic (ceil(ticks / clock_div) per node) and
  /// filled by CompiledSimulator, not the kernel.
  using RunActivityFn = void (*)(std::uint64_t ticks,
                                 const std::int64_t* const* in,
                                 std::int64_t* const* out,
                                 std::uint64_t* toggles);

  CompiledKernel(void* handle, void* entry) : handle_(handle), entry_(entry) {}
  ~CompiledKernel();
  CompiledKernel(const CompiledKernel&) = delete;
  CompiledKernel& operator=(const CompiledKernel&) = delete;

  /// The entry point as `Fn`, which must be the signature of the Entry
  /// the kernel was built for (RunFn or RunActivityFn).
  template <class Fn>
  Fn entry() const {
    return reinterpret_cast<Fn>(entry_);
  }

 private:
  void* handle_ = nullptr;
  void* entry_ = nullptr;
};

/// emit_source() output: exactly one of `source` (emittable netlist) or
/// `error` (emitter refusal; the caller stays on the tape engine, which
/// reproduces the scalar semantics including any runtime throw).
struct EmitResult {
  std::string source;
  std::string error;
};

/// build_kernel() output. `kernel` is null on any failure, with the reason
/// in `detail`; on success `so_path` names the cache object and
/// `cache_hit`/`evicted` describe how it was obtained.
struct BuildResult {
  std::shared_ptr<CompiledKernel> kernel;
  bool cache_hit = false;
  bool evicted = false;  ///< a stale/corrupt cached .so was replaced
  std::string detail;
  std::string so_path;
};

/// DSADC_CODEGEN says "on"/"1"/"true" (enables kAuto constructions).
bool enabled_by_env();
/// DSADC_CODEGEN says "off"/"0"/"false" (global kill switch, beats kOn).
bool disabled_by_env();

/// Resolved cache directory (env override or $TMPDIR/dsadc-codegen).
std::string cache_dir();

/// Render `sim`'s elaborated tape as a translation unit holding only the
/// `entry` entry point.
EmitResult emit_source(const CompiledSimulator& sim, Entry entry);

/// Compile `source` (or fetch it from the content-hash cache) and load its
/// `symbol` entry point. Thread-safe: concurrent builds of the same source
/// race benignly on an atomic rename.
BuildResult build_kernel(const std::string& source, const char* symbol);

}  // namespace dsadc::rtl::codegen
