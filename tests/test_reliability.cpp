// Tests for mapping/reliability.hpp: the FP product formula, including the
// paper's Figure 5 values.

#include "relap/mapping/reliability.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "relap/gen/paper_instances.hpp"
#include "relap/platform/builders.hpp"

namespace relap::mapping {
namespace {

TEST(Reliability, SingleProcessor) {
  const auto plat = platform::make_fully_homogeneous(3, 1.0, 1.0, 0.25);
  EXPECT_DOUBLE_EQ(failure_probability(plat, IntervalMapping::single_interval(2, {0})), 0.25);
}

TEST(Reliability, ReplicationMultipliesGroupFailures) {
  const auto plat = platform::make_fully_homogeneous(3, 1.0, 1.0, 0.5);
  // Group of 3: FP = 0.5^3.
  EXPECT_DOUBLE_EQ(
      failure_probability(plat, IntervalMapping::single_interval(2, {0, 1, 2})), 0.125);
}

TEST(Reliability, IntervalsCompoundSurvival) {
  const auto plat = platform::make_fully_homogeneous(2, 1.0, 1.0, 0.5);
  // Two intervals on single processors: FP = 1 - (1-0.5)^2 = 0.75.
  const IntervalMapping m({{{0, 0}, {0}}, {{1, 1}, {1}}});
  EXPECT_DOUBLE_EQ(failure_probability(plat, m), 0.75);
}

TEST(ReliabilityPaper, Fig5SingleIntervalIs064) {
  const auto plat = gen::fig5_platform();
  EXPECT_DOUBLE_EQ(failure_probability(plat, gen::fig5_single_interval_mapping()),
                   0.64000000000000012);  // 0.8^2 in binary doubles
  EXPECT_NEAR(failure_probability(plat, gen::fig5_single_interval_mapping()), 0.64, 1e-12);
}

TEST(ReliabilityPaper, Fig5TwoIntervalBeatsPoint2) {
  const auto plat = gen::fig5_platform();
  const double fp = failure_probability(plat, gen::fig5_two_interval_mapping());
  // Paper: 1 - (1-0.1)(1 - 0.8^10) < 0.2.
  const double expected = 1.0 - (1.0 - 0.1) * (1.0 - std::pow(0.8, 10));
  EXPECT_DOUBLE_EQ(fp, expected);
  EXPECT_LT(fp, 0.2);
}

TEST(Reliability, GroupFailureProbability) {
  const auto plat = platform::make_comm_homogeneous({1.0, 1.0, 1.0}, 1.0, {0.1, 0.2, 0.5});
  EXPECT_DOUBLE_EQ(group_failure_probability(plat, {0}), 0.1);
  EXPECT_DOUBLE_EQ(group_failure_probability(plat, {0, 2}), 0.05);
  EXPECT_DOUBLE_EQ(group_failure_probability(plat, {0, 1, 2}), 0.01);
}

TEST(Reliability, PerfectProcessorsGiveZeroFp) {
  const auto plat = platform::make_fully_homogeneous(2, 1.0, 1.0, 0.0);
  EXPECT_DOUBLE_EQ(failure_probability(plat, IntervalMapping::single_interval(1, {0})), 0.0);
}

TEST(Reliability, CertainFailureGivesFpOne) {
  const auto plat = platform::make_fully_homogeneous(2, 1.0, 1.0, 1.0);
  const auto m = IntervalMapping::single_interval(1, {0});
  EXPECT_DOUBLE_EQ(failure_probability(plat, m), 1.0);
}

}  // namespace
}  // namespace relap::mapping
