// Tests for mapping/latency.hpp: hand-computed goldens including both paper
// examples digit for digit, the Eq.(1)/Eq.(2) equivalence on identical-link
// platforms, the general-mapping path weight, and the latency range rule.

#include "relap/mapping/latency.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "relap/gen/paper_instances.hpp"
#include "relap/gen/pipelines.hpp"
#include "relap/gen/platforms.hpp"
#include "relap/platform/builders.hpp"
#include "relap/util/stats.hpp"

namespace relap::mapping {
namespace {

// --- Paper Figure 3 / Figure 4 (Section 3). -------------------------------

TEST(LatencyPaper, Fig4SingleProcessorIs105) {
  const auto pipe = gen::fig3_pipeline();
  const auto plat = gen::fig4_platform();
  EXPECT_DOUBLE_EQ(latency_eq2(pipe, plat, gen::fig4_single_mapping()), 105.0);
  // Mapping everything on the other processor is also 105 (paper: "either
  // if we choose P1 or P2").
  EXPECT_DOUBLE_EQ(
      latency_eq2(pipe, plat, IntervalMapping::single_interval(2, {1})), 105.0);
}

TEST(LatencyPaper, Fig4SplitMappingIs7) {
  const auto pipe = gen::fig3_pipeline();
  const auto plat = gen::fig4_platform();
  EXPECT_DOUBLE_EQ(latency_eq2(pipe, plat, gen::fig4_split_mapping()), 7.0);
}

TEST(LatencyPaper, Fig4DispatchUsesEq2) {
  const auto pipe = gen::fig3_pipeline();
  const auto plat = gen::fig4_platform();
  EXPECT_DOUBLE_EQ(latency(pipe, plat, gen::fig4_split_mapping()), 7.0);
}

// --- Paper Figure 5 (Section 3). -------------------------------------------

TEST(LatencyPaper, Fig5TwoIntervalMappingIsExactly22) {
  const auto pipe = gen::fig5_pipeline();
  const auto plat = gen::fig5_platform();
  EXPECT_DOUBLE_EQ(latency_eq1(pipe, plat, gen::fig5_two_interval_mapping()), 22.0);
}

TEST(LatencyPaper, Fig5BestSingleIntervalLatency) {
  const auto pipe = gen::fig5_pipeline();
  const auto plat = gen::fig5_platform();
  // Two fast processors: 2 * 10/1 + 101/100 + 0 = 21.01.
  EXPECT_DOUBLE_EQ(latency_eq1(pipe, plat, gen::fig5_single_interval_mapping()), 21.01);
  // Three fast processors exceed the threshold 22 (paper: 3*10 + 101/100 > 22).
  const auto three = IntervalMapping::single_interval(2, {1, 2, 3});
  EXPECT_GT(latency_eq1(pipe, plat, three), 22.0);
  EXPECT_DOUBLE_EQ(latency_eq1(pipe, plat, three), 31.01);
}

// --- Equation (1) structure. -----------------------------------------------

TEST(LatencyEq1, SerializedInputScalesWithReplication) {
  const auto pipe = pipeline::Pipeline({4.0}, {6.0, 3.0});
  const auto plat = platform::make_fully_homogeneous(4, 2.0, 3.0, 0.1);
  // k replicas: k * 6/3 + 4/2 + 3/3 = 2k + 3.
  for (std::size_t k = 1; k <= 4; ++k) {
    std::vector<platform::ProcessorId> group(k);
    for (std::size_t u = 0; u < k; ++u) group[u] = u;
    EXPECT_DOUBLE_EQ(latency_eq1(pipe, plat, IntervalMapping::single_interval(1, group)),
                     2.0 * static_cast<double>(k) + 3.0);
  }
}

TEST(LatencyEq1, SlowestReplicaDeterminesCompute) {
  const auto pipe = pipeline::Pipeline({12.0}, {0.0, 0.0});
  const auto plat = platform::make_comm_homogeneous({6.0, 3.0, 2.0}, 1.0, 0.1);
  EXPECT_DOUBLE_EQ(latency_eq1(pipe, plat, IntervalMapping::single_interval(1, {0})), 2.0);
  EXPECT_DOUBLE_EQ(latency_eq1(pipe, plat, IntervalMapping::single_interval(1, {0, 1})), 4.0);
  EXPECT_DOUBLE_EQ(latency_eq1(pipe, plat, IntervalMapping::single_interval(1, {0, 1, 2})), 6.0);
}

TEST(LatencyEq1, MultiIntervalHandComputed) {
  // Stages: w = [2, 4], delta = [1, 2, 3]; b = 1; speeds all 1.
  const auto pipe = pipeline::Pipeline({2.0, 4.0}, {1.0, 2.0, 3.0});
  const auto plat = platform::make_fully_homogeneous(3, 1.0, 1.0, 0.1);
  // [0..0]->{0}, [1..1]->{1,2}: 1*1 + 2 + 2*2 + 4 + 3 = 14.
  const IntervalMapping m({{{0, 0}, {0}}, {{1, 1}, {1, 2}}});
  EXPECT_DOUBLE_EQ(latency_eq1(pipe, plat, m), 14.0);
}

// --- Equations (1) and (2) agree when links are identical. ------------------

class LatencyEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LatencyEquivalence, Eq1EqualsEq2OnIdenticalLinks) {
  const std::uint64_t seed = GetParam();
  const auto pipe = gen::random_uniform_pipeline(5, seed);
  gen::PlatformGenOptions options;
  options.processors = 6;
  const auto plat = gen::random_comm_hom_het_failures(options, seed ^ 0xABCD);

  // A few representative mappings: single interval, two intervals, three.
  const std::vector<IntervalMapping> mappings = {
      IntervalMapping::single_interval(5, {0, 3, 5}),
      IntervalMapping({{{0, 2}, {1, 2}}, {{3, 4}, {0, 4}}}),
      IntervalMapping({{{0, 0}, {5}}, {{1, 3}, {0, 1, 2}}, {{4, 4}, {3}}}),
  };
  for (const IntervalMapping& m : mappings) {
    const double eq1 = latency_eq1(pipe, plat, m);
    const double eq2 = latency_eq2(pipe, plat, m);
    EXPECT_TRUE(util::approx_equal(eq1, eq2))
        << "eq1=" << eq1 << " eq2=" << eq2 << " mapping=" << m.describe();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LatencyEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12));

// --- General-mapping latency (Theorem 4 path weight). -----------------------

TEST(LatencyGeneral, NoTransferBetweenSameProcessorStages) {
  const auto pipe = pipeline::Pipeline({1.0, 1.0, 1.0}, {1.0, 5.0, 5.0, 1.0});
  const auto plat = platform::make_fully_homogeneous(2, 1.0, 1.0, 0.1);
  // All on processor 0: 1/1 + 3*1 + 1/1 = 5 (no internal transfers).
  EXPECT_DOUBLE_EQ(latency(pipe, plat, GeneralMapping({0, 0, 0})), 5.0);
  // Alternating: pays both internal deltas: 1 + 1 + 5 + 1 + 5 + 1 + 1 = 15.
  EXPECT_DOUBLE_EQ(latency(pipe, plat, GeneralMapping({0, 1, 0})), 15.0);
}

TEST(LatencyGeneral, NonConsecutiveReuseMatchesHandComputation) {
  const auto pipe = gen::fig3_pipeline();
  const auto plat = gen::fig4_platform();
  // The split mapping as a general mapping gives the same 7.
  EXPECT_DOUBLE_EQ(latency(pipe, plat, GeneralMapping({0, 1})), 7.0);
  // Both stages on processor 0 equals the single-interval 105.
  EXPECT_DOUBLE_EQ(latency(pipe, plat, GeneralMapping({0, 0})), 105.0);
}

TEST(LatencyGeneral, AgreesWithIntervalEvaluatorOnUnreplicatedIntervalMappings) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto pipe = gen::random_uniform_pipeline(4, seed);
    gen::PlatformGenOptions options;
    options.processors = 4;
    const auto plat = gen::random_fully_heterogeneous(options, seed * 31);
    // Interval mapping [0..1]->{2}, [2..3]->{0} equals general {2,2,0,0}.
    const IntervalMapping interval({{{0, 1}, {2}}, {{2, 3}, {0}}});
    const GeneralMapping general({2, 2, 0, 0});
    EXPECT_TRUE(util::approx_equal(latency(pipe, plat, interval), latency(pipe, plat, general)))
        << "seed " << seed;
  }
}

// --- Lower bound. -----------------------------------------------------------

TEST(LatencyLowerBound, NeverExceedsAnyMapping) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto pipe = gen::random_uniform_pipeline(3, seed);
    gen::PlatformGenOptions options;
    options.processors = 3;
    const auto plat = gen::random_fully_heterogeneous(options, seed * 77);
    const double bound = latency_lower_bound(pipe, plat);
    EXPECT_LE(bound,
              latency(pipe, plat, IntervalMapping::single_interval(3, {0})) + 1e-9);
    EXPECT_LE(bound,
              latency(pipe, plat, IntervalMapping({{{0, 0}, {0}}, {{1, 2}, {1, 2}}})) + 1e-9);
  }
}

// --- Latency range rule. ----------------------------------------------------

TEST(LatencyRange, RefusesInstancesWhoseLatenciesCanOverflow) {
  const auto slow = platform::make_comm_homogeneous({1.0, 1e-10}, 1.0, {0.1, 0.2});
  const auto unit_work = pipeline::Pipeline({1.0, 1.0}, {1.0, 1.0, 1.0});
  EXPECT_FALSE(check_latency_range(unit_work, slow, 1.0));

  // All the work on the slowest processor: 2e300 / 1e-10 overflows.
  const auto huge_work = pipeline::Pipeline({1e300, 1e300}, {1.0, 1.0, 1.0});
  const std::optional<util::Error> overflow = check_latency_range(huge_work, slow, 1.0);
  ASSERT_TRUE(overflow);
  EXPECT_EQ(overflow->code, "malformed");
  EXPECT_NE(overflow->message.find("overflow"), std::string::npos) << overflow->message;

  // The bound 2e10 + 3 is finite, but not once divided by a 2^-1000 time
  // scale (the caller's units).
  EXPECT_TRUE(check_latency_range(unit_work, slow, std::ldexp(1.0, -1000)));
  EXPECT_FALSE(check_latency_range(unit_work, slow, std::ldexp(1.0, 1000)));

  // m + 1 = 3 copies of the largest data size: 3 * 4e307 is finite but above
  // half the largest double, 3 * 2e307 is below it.
  const auto unit = platform::make_fully_homogeneous(2, 1.0, 1.0, 0.1);
  EXPECT_TRUE(check_latency_range(pipeline::Pipeline({1.0}, {1.0, 4e307}), unit, 1.0));
  EXPECT_FALSE(check_latency_range(pipeline::Pipeline({1.0}, {1.0, 2e307}), unit, 1.0));

  // The slowest link counts whichever it is, P_in, P_out or off-diagonal; the
  // ignored diagonal does not.
  const auto data = pipeline::Pipeline({1.0}, {1e10, 1e10});
  const std::vector<double> ones{1.0, 1.0};
  const std::vector<double> slow_in{1e-300, 1.0};
  const std::vector<double> slow_out{1.0, 1e-300};
  const std::vector<std::vector<double>> uniform{{1.0, 1.0}, {1.0, 1.0}};
  const std::vector<std::vector<double>> slow_link{{1.0, 1e-300}, {1.0, 1.0}};
  const std::vector<std::vector<double>> slow_diagonal{{1e-300, 1.0}, {1.0, 1.0}};
  const std::vector<double> fps{0.1, 0.1};
  const auto refused = [&](const std::vector<std::vector<double>>& links,
                           const std::vector<double>& in, const std::vector<double>& out) {
    return check_latency_range(data, platform::Platform(ones, fps, links, in, out), 1.0)
        .has_value();
  };
  EXPECT_TRUE(refused(uniform, slow_in, ones));
  EXPECT_TRUE(refused(uniform, ones, slow_out));
  EXPECT_TRUE(refused(slow_link, ones, ones));
  EXPECT_FALSE(refused(slow_diagonal, ones, ones));
}

TEST(LatencyDeath, MappingMustCoverPipeline) {
  const auto pipe = pipeline::Pipeline({1.0, 1.0}, {1.0, 1.0, 1.0});
  const auto plat = platform::make_fully_homogeneous(2, 1.0, 1.0, 0.1);
  EXPECT_DEATH((void)latency_eq1(pipe, plat, IntervalMapping::single_interval(3, {0})),
               "cover");
  // Eq.(1) on heterogeneous links is a contract violation.
  const auto het = gen::fig4_platform();
  EXPECT_DEATH((void)latency_eq1(gen::fig3_pipeline(), het, gen::fig4_single_mapping()),
               "identical-link");
}

}  // namespace
}  // namespace relap::mapping
