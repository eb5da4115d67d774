#include "autotune/policy_tunable.hpp"

#include <gtest/gtest.h>

namespace femto::tune {
namespace {

TEST(PolicyTunable, CandidateSpaceIsFullCross) {
  HaloPolicyTunable t({2, 1, 1, 1}, {4, 4, 4, 4}, 24);
  EXPECT_EQ(t.candidates().size(), 6u);  // 3 policies x 2 granularities
}

TEST(PolicyTunable, DecodeRoundTrip) {
  HaloPolicyTunable t({2, 1, 1, 1}, {4, 4, 4, 4}, 24);
  for (const auto& p : t.candidates()) {
    const auto c = HaloPolicyTunable::decode(p);
    // Encode values are indices; spot check the corners.
    if (p.get("policy") == 0) {
      EXPECT_EQ(c.policy, comm::CommPolicy::HostStaged);
    }
    if (p.get("policy") == 2) {
      EXPECT_EQ(c.policy, comm::CommPolicy::DirectRdma);
    }
    if (p.get("granularity") == 1) {
      EXPECT_EQ(c.granularity, comm::Granularity::PerDimension);
    }
  }
}

TEST(PolicyTunable, KeyDependsOnConfiguration) {
  HaloPolicyTunable a({2, 1, 1, 1}, {4, 4, 4, 4}, 24);
  HaloPolicyTunable b({2, 1, 1, 2}, {4, 4, 4, 4}, 24);
  HaloPolicyTunable c({2, 1, 1, 1}, {8, 4, 4, 4}, 24);
  EXPECT_NE(a.key(), b.key());
  EXPECT_NE(a.key(), c.key());
}

TEST(PolicyTunable, TuningSelectsAWorkingPolicy) {
  Autotuner tuner;
  tuner.set_reps(1);
  HaloPolicyTunable t({2, 1, 1, 1}, {4, 4, 4, 2}, 8);
  const auto& e = tuner.tune(t);
  EXPECT_EQ(e.candidates_tried, 6);
  const auto choice = HaloPolicyTunable::decode(e.param);
  // Any policy is functionally valid; the tuner must pick one of them.
  (void)choice;
  EXPECT_GE(e.param.get("policy"), 0);
  EXPECT_LE(e.param.get("policy"), 2);
}

TEST(PolicyTunable, BytesAccountsDistributedDimsOnly) {
  HaloPolicyTunable t({2, 1, 1, 1}, {4, 4, 4, 4}, 10);
  // One split dim: 2 faces x 64 face sites x 10 reals x 8 bytes x 2 ranks.
  EXPECT_EQ(t.bytes_per_call(), 2LL * 64 * 10 * 8 * 2);
}

TEST(PolicyTunable, TunedHaloPolicyHelper) {
  Autotuner::global().clear();
  const auto c = tuned_halo_policy({2, 1, 1, 1}, {2, 2, 2, 2}, 4);
  (void)c;
  EXPECT_TRUE(Autotuner::global().size() >= 1);
  Autotuner::global().clear();
}

}  // namespace
}  // namespace femto::tune
