// Tests for mapping/throughput.hpp (the Section 5 extension): hand-computed
// periods and consistency properties.

#include "relap/mapping/throughput.hpp"

#include <gtest/gtest.h>

#include "relap/gen/pipelines.hpp"
#include "relap/gen/platforms.hpp"
#include "relap/mapping/latency.hpp"
#include "relap/platform/builders.hpp"

namespace relap::mapping {
namespace {

TEST(Throughput, SingleProcessorPeriodIsFullCycle) {
  const auto pipe = pipeline::Pipeline({4.0}, {2.0, 6.0});
  const auto plat = platform::make_fully_homogeneous(1, 2.0, 2.0, 0.1);
  // receive 2/2 + compute 4/2 + send 6/2 = 1 + 2 + 3 = 6.
  EXPECT_DOUBLE_EQ(period(pipe, plat, IntervalMapping::single_interval(1, {0})), 6.0);
}

TEST(Throughput, SplitReducesPeriod) {
  // Two heavy stages on one processor vs one each: splitting halves the
  // compute per resource and the period drops.
  const auto pipe = pipeline::Pipeline({10.0, 10.0}, {1.0, 1.0, 1.0});
  const auto plat = platform::make_fully_homogeneous(2, 1.0, 1.0, 0.1);
  const double single = period(pipe, plat, IntervalMapping::single_interval(2, {0}));
  const double split = period(pipe, plat, IntervalMapping({{{0, 0}, {0}}, {{1, 1}, {1}}}));
  EXPECT_DOUBLE_EQ(single, 1.0 + 20.0 + 1.0);
  EXPECT_DOUBLE_EQ(split, 1.0 + 10.0 + 1.0);
  EXPECT_LT(split, single);
}

TEST(Throughput, ReplicationCostsOutgoingCopies) {
  const auto pipe = pipeline::Pipeline({2.0, 2.0}, {1.0, 4.0, 1.0});
  const auto plat = platform::make_fully_homogeneous(4, 1.0, 1.0, 0.1);
  // Interval 0 on {0}, interval 1 on {1,2,3}: the sender of interval 0 pays
  // 3 serialized copies of delta_1 = 4.
  const IntervalMapping m({{{0, 0}, {0}}, {{1, 1}, {1, 2, 3}}});
  // Processor 0 cycle: 1 (in) + 2 (compute) + 3*4 (sends) = 15; the interval
  // 1 replicas: 4 (worst receive) + 2 + 1 = 7; P_in: 1.
  EXPECT_DOUBLE_EQ(period(pipe, plat, m), 15.0);
}

TEST(Throughput, InputSerializationBoundsPeriod) {
  // delta_0 large and highly replicated first interval: P_in is the
  // bottleneck.
  const auto pipe = pipeline::Pipeline({0.5}, {10.0, 0.0});
  const auto plat = platform::make_fully_homogeneous(3, 100.0, 1.0, 0.1);
  const IntervalMapping m = IntervalMapping::single_interval(1, {0, 1, 2});
  // P_in: 3 * 10 = 30; each replica: 10 + 0.005 + 0 ~ 10.005.
  EXPECT_DOUBLE_EQ(period(pipe, plat, m), 30.0);
}

TEST(Throughput, PeriodNeverExceedsLatency) {
  // For any mapping, one data set's end-to-end latency is at least the
  // busiest resource's cycle time.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto pipe = gen::random_uniform_pipeline(4, seed);
    gen::PlatformGenOptions options;
    options.processors = 5;
    const auto plat = gen::random_comm_hom_het_failures(options, seed * 13);
    const IntervalMapping m({{{0, 1}, {0, 1}}, {{2, 3}, {2, 3, 4}}});
    EXPECT_LE(period(pipe, plat, m), latency(pipe, plat, m) + 1e-9) << "seed " << seed;
  }
}

}  // namespace
}  // namespace relap::mapping
