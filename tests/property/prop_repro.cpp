// Repro-file round trips: every stage kind's case must serialize to JSON,
// survive dump -> parse, and replay to the same verdict.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/verify/diff.h"
#include "src/verify/harness.h"
#include "src/verify/json.h"
#include "src/verify/repro.h"
#include "tests/temp_dir.h"

namespace {

using namespace dsadc::verify;

class PropertyRepro : public ::testing::TestWithParam<StageKind> {};

TEST_P(PropertyRepro, JsonRoundTripPreservesCase) {
  const StageCase c = random_case(GetParam(), UINT64_C(0x5EED0));
  const Json j = case_to_json(c);
  const StageCase back = case_from_json(json_parse(j.dump(2)));

  EXPECT_EQ(back.kind, c.kind);
  EXPECT_EQ(back.seed, c.seed);
  EXPECT_EQ(back.stim_class, c.stim_class);
  EXPECT_EQ(back.stimulus, c.stimulus);
  EXPECT_EQ(case_input_format(back).width, case_input_format(c).width);
  EXPECT_EQ(case_input_format(back).frac, case_input_format(c).frac);
}

TEST_P(PropertyRepro, FileRoundTripReplaysToSameVerdict) {
  const StageCase c = random_case(GetParam(), UINT64_C(0x5EED1));
  const DiffOutcome direct = run_case(c);

  const dsadc::testing_ref::ScopedTempDir dir;
  const std::string path = emit_repro(c, dir.path());
  const StageCase loaded = load_repro(path);
  const DiffOutcome replayed = replay(loaded);

  EXPECT_EQ(replayed.ok, direct.ok);
  EXPECT_EQ(replayed.leg, direct.leg);
  EXPECT_DOUBLE_EQ(replayed.max_ref_error, direct.max_ref_error);
  EXPECT_DOUBLE_EQ(replayed.error_bound, direct.error_bound);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, PropertyRepro,
    ::testing::Values(StageKind::kCic, StageKind::kPolyphaseCic,
                      StageKind::kSharpenedCic, StageKind::kHbf,
                      StageKind::kScaler, StageKind::kFir, StageKind::kChain),
    [](const ::testing::TestParamInfo<StageKind>& info) {
      return std::string(stage_kind_name(info.param));
    });

}  // namespace
