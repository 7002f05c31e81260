// Tests for algorithms/heuristics.hpp: every generator emits valid mappings,
// the suite solves the paper's Figure 5 instance optimally, and across random
// instances of the open/NP-hard classes the heuristic answer stays within a
// bounded factor of the exhaustive optimum (and never below it).

#include "relap/algorithms/heuristics.hpp"

#include <gtest/gtest.h>

#include "relap/algorithms/exhaustive.hpp"
#include "relap/gen/paper_instances.hpp"
#include "relap/gen/pipelines.hpp"
#include "relap/gen/platforms.hpp"
#include "relap/platform/builders.hpp"
#include "relap/mapping/validate.hpp"
#include "relap/util/stats.hpp"

namespace relap::algorithms {
namespace {

TEST(HeuristicGenerators, AllEmitValidEvaluatedCandidates) {
  // Every candidate's objectives equal evaluate() bit for bit — for the
  // beam, whose finals go through the lane kernel, on Eq. (1) (identical
  // links) and Eq. (2) (fully heterogeneous) alike.
  const auto pipe = gen::random_uniform_pipeline(4, 21);
  gen::PlatformGenOptions options;
  options.processors = 6;
  for (const platform::Platform& plat : {gen::random_comm_hom_het_failures(options, 22),
                                         gen::random_fully_heterogeneous(options, 23)}) {
    const HeuristicOptions h;
    std::size_t count = 0;
    const CandidateSink check = [&](Solution s) {
      ++count;
      ASSERT_TRUE(mapping::validate(pipe, plat, s.mapping).has_value());
      const Solution expected = evaluate(pipe, plat, s.mapping);
      EXPECT_EQ(s.latency, expected.latency) << s.describe();
      EXPECT_EQ(s.failure_probability, expected.failure_probability) << s.describe();
    };
    enumerate_single_interval_candidates(pipe, plat, h, check);
    const std::size_t after_single = count;
    enumerate_greedy_split_candidates(pipe, plat, h, check);
    const std::size_t after_greedy = count;
    enumerate_beam_candidates(pipe, plat, h, check);
    EXPECT_GT(after_single, 0u);
    EXPECT_GT(after_greedy, after_single);
    EXPECT_GT(count, after_greedy);
  }
}

TEST(HeuristicSuite, SolvesFig5Optimally) {
  // The suite must discover the two-interval replication trick the paper
  // uses to motivate the open problem.
  const auto pipe = gen::fig5_pipeline();
  const auto plat = gen::fig5_platform();
  const Result r =
      heuristic_min_fp_for_latency(pipe, plat, gen::fig5_latency_threshold());
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(within_cap(r->latency, gen::fig5_latency_threshold()));
  EXPECT_LT(r->failure_probability, 0.2);  // the paper's two-interval bound
  EXPECT_EQ(r->mapping.interval_count(), 2u);
}

TEST(HeuristicSuite, Fig3SplitDiscovered) {
  // On the Figure 3/4 platform the latency-7 split must be found (greedy
  // split descends to it).
  const auto pipe = gen::fig3_pipeline();
  const auto plat = gen::fig4_platform();
  const Result r = heuristic_min_fp_for_latency(pipe, plat, 7.0);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(util::approx_equal(r->latency, 7.0));
}

TEST(HeuristicSuite, InfeasibleThresholdReported) {
  const auto pipe = gen::fig3_pipeline();
  const auto plat = gen::fig4_platform();
  const Result r = heuristic_min_fp_for_latency(pipe, plat, 1.0);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, "infeasible");
}

struct GapCase {
  std::uint64_t seed;
  bool fully_het;
};

class HeuristicGap : public ::testing::TestWithParam<GapCase> {};

TEST_P(HeuristicGap, WithinFactorOfExhaustiveAndNeverBetter) {
  const auto& param = GetParam();
  const auto pipe = gen::random_uniform_pipeline(3, param.seed);
  gen::PlatformGenOptions options;
  options.processors = 4;
  const auto plat = param.fully_het
                        ? gen::random_fully_heterogeneous(options, param.seed * 307)
                        : gen::random_comm_hom_het_failures(options, param.seed * 307);

  const auto oracle = exhaustive_pareto(pipe, plat);
  ASSERT_TRUE(oracle.has_value());

  // Probe three thresholds along the oracle front.
  for (std::size_t pick = 0; pick < oracle->front.size();
       pick += std::max<std::size_t>(1, oracle->front.size() / 3)) {
    const auto& point = oracle->front[pick];
    const Result h = heuristic_min_fp_for_latency(pipe, plat, point.latency);
    ASSERT_TRUE(h.has_value()) << "threshold " << point.latency;
    EXPECT_TRUE(within_cap(h->latency, point.latency));
    // Never better than the exhaustive optimum (sanity: oracle is exact)...
    EXPECT_GE(h->failure_probability, point.failure_probability - 1e-9);
    // ... and on these tiny instances the suite should be near-exact: allow
    // a 1.5x FP ratio slack before declaring regression.
    EXPECT_LE(h->failure_probability, std::max(point.failure_probability * 1.5, 1e-12))
        << "L=" << point.latency << " heuristic=" << h->failure_probability
        << " oracle=" << point.failure_probability;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, HeuristicGap,
    ::testing::Values(GapCase{1, false}, GapCase{2, false}, GapCase{3, false},
                      GapCase{4, false}, GapCase{5, false}, GapCase{1, true}, GapCase{2, true},
                      GapCase{3, true}, GapCase{4, true}, GapCase{5, true}));

class HeuristicMinLatencyGap : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HeuristicMinLatencyGap, MinLatencyDirectionFeasibleAndTight) {
  const std::uint64_t seed = GetParam();
  const auto pipe = gen::random_uniform_pipeline(3, seed);
  gen::PlatformGenOptions options;
  options.processors = 4;
  const auto plat = gen::random_comm_hom_het_failures(options, seed * 509);
  const auto oracle = exhaustive_pareto(pipe, plat);
  ASSERT_TRUE(oracle.has_value());

  const auto& mid = oracle->front[oracle->front.size() / 2];
  const Result h = heuristic_min_latency_for_fp(pipe, plat, mid.failure_probability);
  ASSERT_TRUE(h.has_value());
  EXPECT_TRUE(within_cap(h->failure_probability, mid.failure_probability));
  EXPECT_GE(h->latency, mid.latency - 1e-9);
  EXPECT_LE(h->latency, mid.latency * 1.5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeuristicMinLatencyGap, ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(HeuristicSuite, BeamSkipsPlatformsBeyondMaskWidth) {
  // > 64 processors: the beam generator must bow out silently (no emission),
  // the other generators still cover the instance.
  const auto pipe = gen::random_uniform_pipeline(2, 1);
  std::vector<double> speeds(70, 1.0);
  const auto plat = platform::make_comm_homogeneous(std::move(speeds), 1.0, 0.3);
  std::size_t beam_count = 0;
  enumerate_beam_candidates(pipe, plat, HeuristicOptions{},
                            [&](Solution) { ++beam_count; });
  EXPECT_EQ(beam_count, 0u);
  const Result r = heuristic_min_fp_for_latency(pipe, plat, 1e9);
  ASSERT_TRUE(r.has_value());
}

}  // namespace
}  // namespace relap::algorithms
