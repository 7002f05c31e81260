// Tests for algorithms/local_search.hpp: monotone improvement, feasibility
// preservation, and escape from deliberately bad starts.

#include "relap/algorithms/local_search.hpp"

#include <gtest/gtest.h>

#include "relap/algorithms/exhaustive.hpp"
#include "relap/gen/paper_instances.hpp"
#include "relap/gen/pipelines.hpp"
#include "relap/gen/platforms.hpp"
#include "relap/mapping/validate.hpp"
#include "relap/util/stats.hpp"

namespace relap::algorithms {
namespace {

Solution start_from(const pipeline::Pipeline& pipe, const platform::Platform& plat,
                    mapping::IntervalMapping m) {
  return evaluate(pipe, plat, std::move(m));
}

TEST(LocalSearch, NeverWorsensTheStart) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto pipe = gen::random_uniform_pipeline(4, seed);
    gen::PlatformGenOptions options;
    options.processors = 5;
    const auto plat = gen::random_comm_hom_het_failures(options, seed * 601);
    const Solution start =
        start_from(pipe, plat, mapping::IntervalMapping::single_interval(4, {0}));
    const double cap = start.latency * 1.2;
    const Solution polished = local_search_min_fp(pipe, plat, start, cap);
    EXPECT_FALSE(better_min_fp(start, polished, cap)) << "seed " << seed;
    EXPECT_TRUE(mapping::validate(pipe, plat, polished.mapping).has_value());
  }
}

TEST(LocalSearch, Fig5SingleIntervalIsALocalOptimum) {
  // From the best single-interval start, every single move worsens FP or
  // breaks the threshold: steepest descent must hold at 0.64 (reaching the
  // two-interval optimum needs the beam — see its tests).
  const auto pipe = gen::fig5_pipeline();
  const auto plat = gen::fig5_platform();
  const Solution start = start_from(pipe, plat, gen::fig5_single_interval_mapping());
  const Solution polished =
      local_search_min_fp(pipe, plat, start, gen::fig5_latency_threshold());
  EXPECT_TRUE(within_cap(polished.latency, gen::fig5_latency_threshold()));
  EXPECT_LE(polished.failure_probability, 0.64 + 1e-12);
}

TEST(LocalSearch, Fig5ReplicationLadderClimbsFromTwoIntervalSkeleton) {
  // From the unreplicated two-interval skeleton, add-replica moves are each
  // strictly improving, so descent must reach the paper's full optimum.
  const auto pipe = gen::fig5_pipeline();
  const auto plat = gen::fig5_platform();
  const Solution start = start_from(
      pipe, plat, mapping::IntervalMapping({{{0, 0}, {0}}, {{1, 1}, {1}}}));
  const Solution polished =
      local_search_min_fp(pipe, plat, start, gen::fig5_latency_threshold());
  EXPECT_TRUE(within_cap(polished.latency, gen::fig5_latency_threshold()));
  EXPECT_LT(polished.failure_probability, 0.2);
}

TEST(LocalSearch, ImprovesLatencyOnFig4) {
  const auto pipe = gen::fig3_pipeline();
  const auto plat = gen::fig4_platform();
  const Solution start = start_from(pipe, plat, gen::fig4_single_mapping());
  // FP cap generous: latency is the objective.
  const Solution polished = local_search_min_latency(pipe, plat, start, 0.9);
  EXPECT_DOUBLE_EQ(polished.latency, 7.0);  // reaches the split optimum
}

TEST(LocalSearch, RespectsRoundBudget) {
  const auto pipe = gen::fig3_pipeline();
  const auto plat = gen::fig4_platform();
  const Solution start = start_from(pipe, plat, gen::fig4_single_mapping());
  LocalSearchOptions options;
  options.max_rounds = 0;
  const Solution frozen = local_search_min_latency(pipe, plat, start, 0.9, options);
  EXPECT_DOUBLE_EQ(frozen.latency, start.latency);
}

TEST(LocalSearch, ReachesExhaustiveOptimumOnTinyInstances) {
  // On 2-stage/3-processor instances the neighborhood graph is small enough
  // that steepest descent from the best single-interval start lands on the
  // global optimum in most cases; assert a modest success count to catch
  // regressions in the move set.
  std::size_t optimal_hits = 0;
  constexpr std::uint64_t kTrials = 10;
  for (std::uint64_t seed = 1; seed <= kTrials; ++seed) {
    const auto pipe = gen::random_uniform_pipeline(2, seed);
    gen::PlatformGenOptions options;
    options.processors = 3;
    const auto plat = gen::random_comm_hom_het_failures(options, seed * 701);
    const auto oracle = exhaustive_pareto(pipe, plat);
    ASSERT_TRUE(oracle.has_value());
    const auto& mid = oracle->front[oracle->front.size() / 2];

    const Solution start =
        start_from(pipe, plat, mapping::IntervalMapping::single_interval(2, {0}));
    const Solution polished = local_search_min_fp(pipe, plat, start, mid.latency);
    if (within_cap(polished.latency, mid.latency) &&
        util::approx_equal(polished.failure_probability, mid.failure_probability)) {
      ++optimal_hits;
    }
  }
  EXPECT_GE(optimal_hits, 6u);
}

}  // namespace
}  // namespace relap::algorithms
