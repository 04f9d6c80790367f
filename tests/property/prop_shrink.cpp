// Fault-injection checks for the shrinker and the repro pipeline: a
// deliberately planted register-width bug must be (a) caught by the
// bounded reference comparison, (b) shrunk to a tiny reproducer, and (c)
// survivable through a repro-file round trip.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/verify/diff.h"
#include "src/verify/harness.h"
#include "src/verify/repro.h"
#include "src/verify/shrink.h"
#include "tests/temp_dir.h"

namespace {

using namespace dsadc::verify;

// The injected bug: a Sinc^4 decimate-by-8 stage whose Hogenauer registers
// were sized for a 6-bit input (Bmax+1 = 4*3 + 6 = 18 bits) while the
// datapath actually carries 10-bit samples. Full-scale 10-bit input
// overflows the too-narrow accumulators, which modular arithmetic cannot
// absorb because the *output* no longer fits either.
StageCase register_width_bug_case() {
  StageCase c;
  c.kind = StageKind::kCic;
  c.seed = UINT64_C(0xB06);
  c.stim_class = StimulusClass::kStep;
  c.cic = dsadc::design::CicSpec{4, 8, 6};  // registers sized for 6-bit input
  c.stimulus.assign(512, 511);       // but it is driven at 10-bit full scale
  c.length = c.stimulus.size();
  return c;
}

TEST(PropertyShrink, InjectedRegisterWidthBugIsCaught) {
  const StageCase c = register_width_bug_case();
  const DiffOutcome out = run_case(c);
  ASSERT_FALSE(out.ok) << "the under-sized registers should wrap visibly";
  EXPECT_EQ(out.leg, "ref-vs-fixed")
      << "RTL inherits the same narrow widths, so only the golden "
         "reference can expose the wrap; got: "
      << out.detail;
}

TEST(PropertyShrink, BugShrinksToTinyReproducer) {
  const StageCase c = register_width_bug_case();
  ASSERT_FALSE(run_case(c).ok);

  auto fails = [&c](const std::vector<std::int64_t>& stim) {
    StageCase probe = c;
    probe.stimulus = stim;
    probe.length = stim.size();
    return !run_case(probe).ok;
  };
  ShrinkOptions opt;
  opt.length_multiple = c.cic.decimation;
  const auto minimal = shrink_stimulus(c.stimulus, fails, opt);

  EXPECT_TRUE(fails(minimal)) << "shrinker must preserve the failure";
  EXPECT_LE(minimal.size(), 64u)
      << "a wraparound triggered by a step should not need more than a "
         "few output periods";
  EXPECT_EQ(minimal.size() % static_cast<std::size_t>(c.cic.decimation), 0u);
}

TEST(PropertyShrink, ShrunkBugRoundTripsThroughReproFile) {
  StageCase c = register_width_bug_case();
  auto fails = [&c](const std::vector<std::int64_t>& stim) {
    StageCase probe = c;
    probe.stimulus = stim;
    probe.length = stim.size();
    return !run_case(probe).ok;
  };
  ShrinkOptions opt;
  opt.length_multiple = c.cic.decimation;
  c.stimulus = shrink_stimulus(c.stimulus, fails, opt);
  c.length = c.stimulus.size();

  const dsadc::testing_ref::ScopedTempDir dir;
  const std::string path = emit_repro(c, dir.path());
  const StageCase loaded = load_repro(path);
  EXPECT_EQ(loaded.kind, c.kind);
  EXPECT_EQ(loaded.stimulus, c.stimulus);
  EXPECT_EQ(loaded.cic.order, c.cic.order);
  EXPECT_EQ(loaded.cic.decimation, c.cic.decimation);
  EXPECT_EQ(loaded.cic.input_bits, c.cic.input_bits);

  const DiffOutcome replayed = replay(loaded);
  EXPECT_FALSE(replayed.ok) << "replaying the repro must still fail";
  EXPECT_EQ(replayed.leg, "ref-vs-fixed");
}

TEST(PropertyShrink, HealthyCaseDoesNotShrink) {
  // Sanity: the shrinker refuses to "shrink" a passing stimulus -- the
  // caller's predicate never fires, so the input comes back untouched.
  const StageCase c = random_case(StageKind::kCic, UINT64_C(0x5EED));
  ASSERT_TRUE(run_case(c).ok);
  auto fails = [](const std::vector<std::int64_t>&) { return false; };
  const auto kept = shrink_stimulus(c.stimulus, fails);
  EXPECT_EQ(kept, c.stimulus);
}

}  // namespace
