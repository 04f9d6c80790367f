// JIT codegen engine: selection, fallback, cache, and bit-exactness.
//
// The codegen backend (src/rtl/codegen.h) must be a pure accelerator:
// engine choice can change throughput only, never results or the public
// API's behavior. Coverage:
//
//   * engine selection and the fallback lattice (kOff, DSADC_CODEGEN=off
//     veto, missing/bogus compiler) -- every fallback must land on the
//     tape engine and stay bit-identical to the interpreter;
//   * the content-hash kernel cache: miss then hit, and eviction +
//     recompile when a cached .so is unloadable;
//   * the lazily built activity kernel: one object at construction, a
//     second on the first activity run, cache hits for both on a second
//     simulator, a tape fallback that stays bit-identical when that build
//     fails, and one compile when four threads ask at once;
//   * a reg-of-const netlist (the t==0 const-commit-after-capture
//     ordering that distinguishes the engines' schedules);
//   * the flattened paper chain across all 9 stimulus classes, three
//     engines compared (interpreter reference, tape, codegen);
//   * a seeded random-netlist sweep, each netlist checked in source form
//     and in proof-carrying optimized form, parallelized over a worker
//     pool.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <latch>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/analyze/opt/opt.h"
#include "src/decimator/chain.h"
#include "src/rtl/builders.h"
#include "src/rtl/codegen.h"
#include "src/rtl/compiled_sim.h"
#include "src/rtl/sim.h"
#include "src/verify/parallel.h"
#include "src/verify/stimulus.h"
#include "tests/temp_dir.h"

namespace {

using namespace dsadc;
using namespace dsadc::rtl;
using Codegen = CompiledSimOptions::Codegen;
using testing_ref::ScopedTempDir;

namespace fs = std::filesystem;

/// Scoped environment override (unset when `value` is nullptr).
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      had_old_ = true;
      old_ = old;
    }
    if (value) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~EnvGuard() {
    if (had_old_) {
      ::setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::string old_;
  bool had_old_ = false;
};

/// Per-process scratch cache directory, shared by all tests in this
/// binary so the paper chain is compiled at most once per run. It lives
/// as long as the test program's global environment: created before the
/// first test, removed after the last.
class CacheDirEnvironment final : public ::testing::Environment {
 public:
  void SetUp() override {
    dir_ = std::make_unique<ScopedTempDir>("dsadc-cg-test");
  }
  void TearDown() override { dir_.reset(); }
  const std::string& path() const { return dir_->path(); }

 private:
  std::unique_ptr<ScopedTempDir> dir_;
};

CacheDirEnvironment* const kCacheEnv = static_cast<CacheDirEnvironment*>(
    ::testing::AddGlobalTestEnvironment(new CacheDirEnvironment));

const std::string& cache_dir() { return kCacheEnv->path(); }

/// Number of cached kernel objects (cg_*.so) in `dir`.
std::size_t cached_objects(const std::string& dir) {
  std::size_t n = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("cg_", 0) == 0 && entry.path().extension() == ".so") ++n;
  }
  return n;
}

bool toolchain_available() {
  static const bool ok = [] {
    Module m("probe");
    m.output("y", m.input("in", 4));
    EnvGuard dir("DSADC_CODEGEN_CACHE_DIR", cache_dir().c_str());
    CompiledSimulator sim(m, {.codegen = Codegen::kOn});
    return sim.engine() == SimEngine::kCodegen;
  }();
  return ok;
}

/// Interpreter reference vs one compiled engine: outputs, tick counts,
/// update counts, and toggle counts must all match.
void expect_matches_reference(const SimResult& ref, const Module& m,
                              NodeId in,
                              const std::vector<std::int64_t>& stim,
                              Codegen mode, SimEngine expected_engine,
                              const std::string& what) {
  CompiledSimulator sim(m, {.codegen = mode});
  ASSERT_EQ(sim.engine(), expected_engine)
      << what << ": " << sim.engine_detail();
  const SimResult got =
      sim.run({{in, stim}}, CompiledRunOptions{.activity = true});
  ASSERT_EQ(ref.outputs.size(), got.outputs.size()) << what;
  for (const auto& [id, stream] : ref.outputs) {
    const auto it = got.outputs.find(id);
    ASSERT_NE(it, got.outputs.end()) << what;
    EXPECT_EQ(stream, it->second) << what << ": output node " << id;
  }
  EXPECT_EQ(ref.activity.base_ticks, got.activity.base_ticks) << what;
  EXPECT_EQ(ref.activity.updates, got.activity.updates) << what;
  EXPECT_EQ(ref.activity.bit_toggles, got.activity.bit_toggles) << what;
}

/// Three-way engine agreement on one stimulus.
void expect_three_way(const Module& m, NodeId in,
                      const std::vector<std::int64_t>& stim,
                      const std::string& what) {
  Simulator interp(m);
  const SimResult ref = interp.run({{in, stim}});
  expect_matches_reference(ref, m, in, stim, Codegen::kOff, SimEngine::kTape,
                           what + " [tape]");
  if (toolchain_available()) {
    expect_matches_reference(ref, m, in, stim, Codegen::kOn,
                             SimEngine::kCodegen, what + " [codegen]");
  }
}

std::vector<std::int64_t> ramp(std::size_t n, std::int64_t lo,
                               std::int64_t hi) {
  std::vector<std::int64_t> v(n);
  std::int64_t x = lo;
  for (auto& s : v) {
    s = x;
    if (++x > hi) x = lo;
  }
  return v;
}

struct Built {
  Module m{"small"};
  NodeId in;
};

Built small_module() {
  Built b;
  b.in = b.m.input("in", 6);
  const NodeId d = b.m.decimate(b.in, 2);
  const NodeId s = b.m.add(d, d, 8);
  b.m.output("y", b.m.reg(s));
  return b;
}

TEST(CodegenSelection, OffOptionSelectsTape) {
  const Built b = small_module();
  CompiledSimulator sim(b.m, {.codegen = Codegen::kOff});
  EXPECT_EQ(sim.engine(), SimEngine::kTape);
}

TEST(CodegenSelection, AutoFollowsEnvDefaultOff) {
  EnvGuard env("DSADC_CODEGEN", nullptr);
  const Built b = small_module();
  CompiledSimulator sim(b.m);  // kAuto
  EXPECT_EQ(sim.engine(), SimEngine::kTape);
}

TEST(CodegenSelection, EnvOffVetoesExplicitOn) {
  EnvGuard env("DSADC_CODEGEN", "off");
  const Built b = small_module();
  CompiledSimulator sim(b.m, {.codegen = Codegen::kOn});
  EXPECT_EQ(sim.engine(), SimEngine::kTape);
  EXPECT_NE(sim.engine_detail().find("DSADC_CODEGEN"), std::string::npos)
      << sim.engine_detail();
}

TEST(CodegenSelection, MissingCompilerFallsBackBitIdentical) {
  EnvGuard cxx("DSADC_CODEGEN_CXX", "/nonexistent/definitely-not-a-cxx");
  const Built b = small_module();
  const auto stim = ramp(64, -32, 31);

  Simulator interp(b.m);
  const SimResult ref = interp.run({{b.in, stim}});
  // kOn with a bogus toolchain must degrade to the tape engine and stay
  // bit-identical -- the fallback is transparent to results.
  expect_matches_reference(ref, b.m, b.in, stim, Codegen::kOn,
                           SimEngine::kTape, "missing compiler fallback");
  CompiledSimulator sim(b.m, {.codegen = Codegen::kOn});
  EXPECT_NE(sim.engine_detail().find("DSADC_CODEGEN_CXX"),
            std::string::npos)
      << sim.engine_detail();
}

TEST(CodegenCache, SecondBuildHitsCache) {
  if (!toolchain_available()) GTEST_SKIP() << "no system compiler";
  const ScopedTempDir tmp("dsadc-cg-hit");
  EnvGuard dir("DSADC_CODEGEN_CACHE_DIR", tmp.path().c_str());

  const Built b = small_module();
  CompiledSimulator first(b.m, {.codegen = Codegen::kOn});
  ASSERT_EQ(first.engine(), SimEngine::kCodegen) << first.engine_detail();
  EXPECT_FALSE(first.codegen_cache_hit());
  EXPECT_TRUE(fs::exists(first.codegen_so_path())) << first.codegen_so_path();

  CompiledSimulator second(b.m, {.codegen = Codegen::kOn});
  ASSERT_EQ(second.engine(), SimEngine::kCodegen) << second.engine_detail();
  EXPECT_TRUE(second.codegen_cache_hit());
  EXPECT_EQ(second.codegen_so_path(), first.codegen_so_path());
}

TEST(CodegenCache, CorruptSoIsEvictedAndRecompiled) {
  if (!toolchain_available()) GTEST_SKIP() << "no system compiler";
  const ScopedTempDir tmp("dsadc-cg-evict");
  EnvGuard dir("DSADC_CODEGEN_CACHE_DIR", tmp.path().c_str());

  const Built b = small_module();
  const std::string so = [&] {
    CompiledSimulator sim(b.m, {.codegen = Codegen::kOn});
    EXPECT_EQ(sim.engine(), SimEngine::kCodegen) << sim.engine_detail();
    return sim.codegen_so_path();
  }();
  ASSERT_FALSE(so.empty());
  {
    // Clobber the cached kernel with garbage that dlopen must reject.
    std::ofstream out(so, std::ios::binary | std::ios::trunc);
    out << "this is not a shared object";
  }

  CompiledSimulator sim(b.m, {.codegen = Codegen::kOn});
  ASSERT_EQ(sim.engine(), SimEngine::kCodegen)
      << "corrupt cache entry was not evicted: " << sim.engine_detail();
  EXPECT_FALSE(sim.codegen_cache_hit());
  const auto stim = ramp(64, -32, 31);
  Simulator interp(b.m);
  const SimResult ref = interp.run({{b.in, stim}});
  expect_matches_reference(ref, b.m, b.in, stim, Codegen::kOn,
                           SimEngine::kCodegen, "recompiled after eviction");
}

/// A compiler wrapper in `dir` that appends one line to `log` per
/// invocation and then runs the compiler the backend would pick itself
/// (the first of c++, g++, clang++ on PATH), so a test can count compiles.
std::string counting_cxx(const std::string& dir, const std::string& log) {
  const std::string wrapper = dir + "/counting-cxx.sh";
  {
    std::ofstream out(wrapper);
    out << "#!/bin/sh\necho compile >> '" << log << "'\n"
        << "for c in c++ g++ clang++; do\n"
        << "  command -v $c >/dev/null && exec $c \"$@\"\n"
        << "done\nexit 127\n";
  }
  fs::permissions(wrapper, fs::perms::owner_all);
  return wrapper;
}

std::size_t line_count(const std::string& path) {
  std::ifstream in(path);
  std::size_t n = 0;
  for (std::string line; std::getline(in, line);) ++n;
  return n;
}

/// Activity run of a codegen simulator against the interpreter.
void expect_activity_matches(const SimResult& ref, const SimResult& got,
                             const std::string& what) {
  EXPECT_EQ(ref.outputs, got.outputs) << what;
  EXPECT_EQ(ref.activity.base_ticks, got.activity.base_ticks) << what;
  EXPECT_EQ(ref.activity.updates, got.activity.updates) << what;
  EXPECT_EQ(ref.activity.bit_toggles, got.activity.bit_toggles) << what;
}

TEST(CodegenLazyActivity, ActivityObjectIsBuiltOnFirstActivityRun) {
  if (!toolchain_available()) GTEST_SKIP() << "no system compiler";
  const ScopedTempDir tmp("dsadc-cg-lazy");
  EnvGuard dir("DSADC_CODEGEN_CACHE_DIR", tmp.path().c_str());
  const std::string log = tmp.path() + "/compiles.log";
  EnvGuard cxx("DSADC_CODEGEN_CXX", counting_cxx(tmp.path(), log).c_str());
  const Built b = small_module();
  const auto stim = ramp(64, -32, 31);
  const SimResult ref = Simulator(b.m).run({{b.in, stim}});

  CompiledSimulator sim(b.m, {.codegen = Codegen::kOn});
  ASSERT_EQ(sim.engine(), SimEngine::kCodegen) << sim.engine_detail();
  EXPECT_EQ(sim.run({{b.in, stim}}).outputs, ref.outputs);
  EXPECT_EQ(sim.run({{b.in, stim}}).outputs, ref.outputs);
  EXPECT_EQ(cached_objects(tmp.path()), 1u)
      << "construction and plain runs must build the run kernel only";
  EXPECT_EQ(line_count(log), 1u);

  expect_activity_matches(
      ref, sim.run({{b.in, stim}}, CompiledRunOptions{.activity = true}),
      "first activity run");
  EXPECT_EQ(cached_objects(tmp.path()), 2u);
  expect_activity_matches(
      ref, sim.run({{b.in, stim}}, CompiledRunOptions{.activity = true}),
      "second activity run");
  EXPECT_EQ(cached_objects(tmp.path()), 2u);
  EXPECT_EQ(line_count(log), 2u);
  EXPECT_EQ(sim.activity_engine(), SimEngine::kCodegen);
  EXPECT_EQ(sim.activity_engine_detail(), "codegen compiled");
  EXPECT_FALSE(sim.codegen_cache_hit());
}

TEST(CodegenLazyActivity, SecondSimulatorHitsCacheForBothObjects) {
  if (!toolchain_available()) GTEST_SKIP() << "no system compiler";
  const ScopedTempDir tmp("dsadc-cg-lazy-hit");
  EnvGuard dir("DSADC_CODEGEN_CACHE_DIR", tmp.path().c_str());
  const Built b = small_module();
  const auto stim = ramp(64, -32, 31);
  const SimResult ref = Simulator(b.m).run({{b.in, stim}});

  {
    CompiledSimulator first(b.m, {.codegen = Codegen::kOn});
    ASSERT_EQ(first.engine(), SimEngine::kCodegen) << first.engine_detail();
    first.run({{b.in, stim}}, CompiledRunOptions{.activity = true});
    ASSERT_EQ(first.activity_engine(), SimEngine::kCodegen)
        << first.activity_engine_detail();
  }
  CompiledSimulator second(b.m, {.codegen = Codegen::kOn});
  ASSERT_EQ(second.engine(), SimEngine::kCodegen) << second.engine_detail();
  EXPECT_TRUE(second.codegen_cache_hit());
  expect_activity_matches(
      ref, second.run({{b.in, stim}}, CompiledRunOptions{.activity = true}),
      "cached activity kernel");
  EXPECT_EQ(second.activity_engine_detail(), "codegen cache hit");
  EXPECT_EQ(cached_objects(tmp.path()), 2u);
}

TEST(CodegenLazyActivity, FailedActivityBuildFallsBackToTape) {
  if (!toolchain_available()) GTEST_SKIP() << "no system compiler";
  const ScopedTempDir tmp("dsadc-cg-lazy-fail");
  EnvGuard dir("DSADC_CODEGEN_CACHE_DIR", tmp.path().c_str());
  const Built b = small_module();
  const auto stim = ramp(64, -32, 31);
  const SimResult ref = Simulator(b.m).run({{b.in, stim}});

  CompiledSimulator sim(b.m, {.codegen = Codegen::kOn});
  ASSERT_EQ(sim.engine(), SimEngine::kCodegen) << sim.engine_detail();
  // The compiler disappears between construction and the first activity
  // run: activity runs go to the tape engine, plain runs stay on codegen.
  EnvGuard cxx("DSADC_CODEGEN_CXX", "/nonexistent/definitely-not-a-cxx");
  expect_activity_matches(
      ref, sim.run({{b.in, stim}}, CompiledRunOptions{.activity = true}),
      "activity fallback");
  EXPECT_EQ(sim.activity_engine(), SimEngine::kTape);
  EXPECT_NE(sim.activity_engine_detail().find("DSADC_CODEGEN_CXX"),
            std::string::npos)
      << sim.activity_engine_detail();
  EXPECT_EQ(sim.engine(), SimEngine::kCodegen);
  EXPECT_EQ(sim.run({{b.in, stim}}).outputs, ref.outputs);
  EXPECT_EQ(cached_objects(tmp.path()), 1u);
}

TEST(CodegenLazyActivity, ConcurrentFirstActivityRunsCompileOnce) {
  if (!toolchain_available()) GTEST_SKIP() << "no system compiler";
  const ScopedTempDir tmp("dsadc-cg-lazy-mt");
  EnvGuard dir("DSADC_CODEGEN_CACHE_DIR", tmp.path().c_str());
  const std::string log = tmp.path() + "/compiles.log";
  EnvGuard cxx("DSADC_CODEGEN_CXX", counting_cxx(tmp.path(), log).c_str());
  const Built b = small_module();
  const auto stim = ramp(256, -32, 31);
  const SimResult ref = Simulator(b.m).run({{b.in, stim}});

  const CompiledSimulator sim(b.m, {.codegen = Codegen::kOn});
  ASSERT_EQ(sim.engine(), SimEngine::kCodegen) << sim.engine_detail();
  ASSERT_EQ(line_count(log), 1u);
  constexpr int kThreads = 4;
  std::vector<SimResult> got(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      got[static_cast<std::size_t>(t)] =
          sim.run({{b.in, stim}}, CompiledRunOptions{.activity = true});
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    expect_activity_matches(ref, got[static_cast<std::size_t>(t)],
                            "thread " + std::to_string(t));
  }
  EXPECT_EQ(sim.activity_engine(), SimEngine::kCodegen);
  EXPECT_EQ(sim.activity_engine_detail(), "codegen compiled");
  EXPECT_EQ(cached_objects(tmp.path()), 2u);
  EXPECT_EQ(line_count(log), 2u)
      << "the activity kernel compiled more than once";
}

TEST(CodegenExactness, RegOfConstAtTickZero) {
  // Registers fed by constants exercise the t==0 ordering: the initial
  // capture must read the pre-commit (zero) value, the const committing
  // only after that tick's captures. Both compiled engines must agree
  // with the interpreter on the full output stream including sample 0.
  EnvGuard dir("DSADC_CODEGEN_CACHE_DIR", cache_dir().c_str());
  Module m("regconst");
  const NodeId in = m.input("in", 4);
  const NodeId c = m.constant(21, 8, 1);
  const NodeId r1 = m.reg(c);
  const NodeId r2 = m.reg(r1);
  const NodeId s = m.add(m.add(in, r1, 9), r2, 10);
  m.output("y", s);
  expect_three_way(m, in, ramp(40, -8, 7), "reg-of-const");
}

TEST(CodegenExactness, PaperChainAllStimulusClasses) {
  EnvGuard dir("DSADC_CODEGEN_CACHE_DIR", cache_dir().c_str());
  const auto cfg = decim::paper_chain_config();
  const auto chain = build_chain(cfg);

  Simulator interp(chain.full);
  CompiledSimulator tape(chain.full, {.codegen = Codegen::kOff});
  const bool cg_ok = toolchain_available();
  CompiledSimulator cg(chain.full,
                       {.codegen = cg_ok ? Codegen::kOn : Codegen::kOff});
  if (cg_ok) {
    ASSERT_EQ(cg.engine(), SimEngine::kCodegen) << cg.engine_detail();
  }

  for (int cls = 0; cls < verify::kNumStimulusClasses; ++cls) {
    const auto c = static_cast<verify::StimulusClass>(cls);
    std::mt19937_64 rng(0xC0DE6E00 + static_cast<std::uint64_t>(cls));
    const auto stim =
        verify::make_stimulus(c, 384, cfg.input_format, rng);
    const std::string what =
        std::string("paper chain / ") + verify::stimulus_name(c);

    const SimResult ref = interp.run({{chain.in, stim}});
    for (CompiledSimulator* sim : {&tape, cg_ok ? &cg : &tape}) {
      const SimResult got =
          sim->run({{chain.in, stim}}, CompiledRunOptions{.activity = true});
      ASSERT_EQ(ref.outputs.size(), got.outputs.size()) << what;
      for (const auto& [id, stream] : ref.outputs) {
        EXPECT_EQ(stream, got.outputs.at(id)) << what << " node " << id;
      }
      EXPECT_EQ(ref.activity.base_ticks, got.activity.base_ticks) << what;
      EXPECT_EQ(ref.activity.updates, got.activity.updates) << what;
      EXPECT_EQ(ref.activity.bit_toggles, got.activity.bit_toggles) << what;
    }
  }
}

TEST(CodegenExactness, RandomNetlistSweepWithOptimizedForms) {
  EnvGuard dir("DSADC_CODEGEN_CACHE_DIR", cache_dir().c_str());
  // 110 seeds x (source + optimized) = 220 netlist checks. Each worker
  // draws an independent CIC spec and stimulus from its seed; the
  // optimized form goes through the proof-carrying rewriter, so the
  // sweep also covers netlists whose op mix differs from any builder's.
  constexpr std::size_t kSeeds = 110;
  std::mutex mu;
  std::vector<std::string> failures;
  verify::parallel_for_index(kSeeds, [&](std::size_t i) {
    std::mt19937_64 rng(0x5EED0000 + i);
    std::uniform_int_distribution<int> order(1, 5);
    std::uniform_int_distribution<int> decim_f(2, 12);
    std::uniform_int_distribution<int> bits(2, 8);
    std::uniform_int_distribution<int> cls(0,
                                           verify::kNumStimulusClasses - 1);
    const design::CicSpec spec{order(rng), decim_f(rng), bits(rng)};
    const auto stage = build_cic(spec);
    const fx::Format fmt{spec.input_bits, 0};
    const auto stim = verify::make_stimulus(
        static_cast<verify::StimulusClass>(cls(rng)), 160, fmt, rng);
    const auto opt = analyze::opt::optimize(stage.module);
    for (const Module* m : {&stage.module, &opt.module}) {
      const std::string what = "seed " + std::to_string(i) +
                               (m == &opt.module ? " optimized" : " source");
      Simulator interp(*m);
      const SimResult ref = interp.run({{stage.in, stim}});
      const Codegen modes[] = {Codegen::kOff, Codegen::kOn};
      for (Codegen mode : modes) {
        if (mode == Codegen::kOn && !toolchain_available()) continue;
        CompiledSimulator sim(*m, {.codegen = mode});
        if (mode == Codegen::kOn &&
            sim.engine() != SimEngine::kCodegen) {
          std::lock_guard<std::mutex> lock(mu);
          failures.push_back(what + ": codegen not selected: " +
                             sim.engine_detail());
          continue;
        }
        const SimResult got = sim.run({{stage.in, stim}},
                                      CompiledRunOptions{.activity = true});
        if (got.outputs != ref.outputs ||
            got.activity.updates != ref.activity.updates ||
            got.activity.bit_toggles != ref.activity.bit_toggles) {
          std::lock_guard<std::mutex> lock(mu);
          failures.push_back(what + ": engines diverge");
        }
      }
    }
  });
  for (const auto& f : failures) ADD_FAILURE() << f;
}

}  // namespace
