// Determinism regression tests for the parallel solver hot paths: one seed
// must yield bit-identical results at 1, 2 and 8 threads, on paper-scale
// instances. These tests pin the exec subsystem's core contract — fixed
// chunk grids, per-chunk split RNG streams, index-order reductions — and
// the lane kernels' contract: each driver equals a scalar walk.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "relap/algorithms/exhaustive.hpp"
#include "relap/algorithms/pareto_driver.hpp"
#include "relap/exec/thread_pool.hpp"
#include "relap/gen/paper_instances.hpp"
#include "relap/gen/pipelines.hpp"
#include "relap/gen/platforms.hpp"
#include "relap/mapping/latency.hpp"
#include "relap/service/broker.hpp"
#include "relap/sim/monte_carlo.hpp"
#include "relap/util/enumeration.hpp"
#include "relap/util/pareto.hpp"

namespace relap {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

void expect_same_estimate(const sim::FailureRateEstimate& a, const sim::FailureRateEstimate& b,
                          std::size_t threads) {
  EXPECT_EQ(a.empirical, b.empirical) << "threads=" << threads;
  EXPECT_EQ(a.analytic, b.analytic) << "threads=" << threads;
  EXPECT_EQ(a.ci95.low, b.ci95.low) << "threads=" << threads;
  EXPECT_EQ(a.ci95.high, b.ci95.high) << "threads=" << threads;
  EXPECT_EQ(a.trials, b.trials) << "threads=" << threads;
}

TEST(Determinism, FailureRateEstimateAcrossThreadCounts) {
  const auto plat = gen::fig5_platform();
  const auto mapping = gen::fig5_two_interval_mapping();

  exec::ThreadPool serial(1);
  sim::MonteCarloOptions options;
  options.trials = 50'000;
  options.pool = &serial;
  const sim::FailureRateEstimate reference = sim::estimate_failure_rate(plat, mapping, options);

  for (const std::size_t threads : kThreadCounts) {
    exec::ThreadPool pool(threads);
    options.pool = &pool;
    expect_same_estimate(sim::estimate_failure_rate(plat, mapping, options), reference, threads);
  }
}

TEST(Determinism, EngineTrialStatsAcrossThreadCounts) {
  const auto pipe = gen::fig5_pipeline();
  const auto plat = gen::fig5_platform();
  const auto mapping = gen::fig5_two_interval_mapping();

  exec::ThreadPool serial(1);
  sim::TrialOptions options;
  options.trials = 600;
  options.pool = &serial;
  const sim::TrialStats reference = sim::run_trials(pipe, plat, mapping, options);

  for (const std::size_t threads : kThreadCounts) {
    exec::ThreadPool pool(threads);
    options.pool = &pool;
    const sim::TrialStats stats = sim::run_trials(pipe, plat, mapping, options);
    expect_same_estimate(stats.failure, reference.failure, threads);
    EXPECT_EQ(stats.failure_free_latency, reference.failure_free_latency) << "threads=" << threads;
    EXPECT_EQ(stats.latency.count(), reference.latency.count()) << "threads=" << threads;
    EXPECT_EQ(stats.latency.mean(), reference.latency.mean()) << "threads=" << threads;
    EXPECT_EQ(stats.latency.variance(), reference.latency.variance()) << "threads=" << threads;
    EXPECT_EQ(stats.latency.min(), reference.latency.min()) << "threads=" << threads;
    EXPECT_EQ(stats.latency.max(), reference.latency.max()) << "threads=" << threads;
  }
}

void expect_same_front(const std::vector<algorithms::ParetoSolution>& a,
                       const std::vector<algorithms::ParetoSolution>& b, std::size_t threads) {
  ASSERT_EQ(a.size(), b.size()) << "threads=" << threads;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].latency, b[i].latency) << "threads=" << threads << " point " << i;
    EXPECT_EQ(a[i].failure_probability, b[i].failure_probability)
        << "threads=" << threads << " point " << i;
    EXPECT_EQ(a[i].mapping, b[i].mapping) << "threads=" << threads << " point " << i;
  }
}

TEST(Determinism, ExhaustiveParetoAcrossThreadCounts) {
  // Figure 5 at paper scale: 2 stages on 11 processors — ~175k candidates.
  const auto pipe = gen::fig5_pipeline();
  const auto plat = gen::fig5_platform();

  exec::ThreadPool serial(1);
  algorithms::ExhaustiveOptions options;
  options.pool = &serial;
  const auto reference = algorithms::exhaustive_pareto(pipe, plat, options);
  ASSERT_TRUE(reference.has_value());

  for (const std::size_t threads : kThreadCounts) {
    exec::ThreadPool pool(threads);
    options.pool = &pool;
    const auto outcome = algorithms::exhaustive_pareto(pipe, plat, options);
    ASSERT_TRUE(outcome.has_value()) << "threads=" << threads;
    EXPECT_EQ(outcome->evaluations, reference->evaluations) << "threads=" << threads;
    expect_same_front(outcome->front, reference->front, threads);
  }
}

TEST(Determinism, ExhaustiveParetoFewCompositionsAcrossThreadCounts) {
  // 2 stages on 8 processors: only 2 compositions, so the old per-composition
  // split degenerated to two giant tasks. The flat rank/unrank chunking must
  // stay bit-identical while cutting this space into uniform chunks.
  const auto pipe = gen::random_uniform_pipeline(2, 101);
  gen::PlatformGenOptions gen_options;
  gen_options.processors = 8;
  const auto plat = gen::random_comm_hom_het_failures(gen_options, 102);

  exec::ThreadPool serial(1);
  algorithms::ExhaustiveOptions options;
  options.pool = &serial;
  const auto reference = algorithms::exhaustive_pareto(pipe, plat, options);
  ASSERT_TRUE(reference.has_value());

  for (const std::size_t threads : kThreadCounts) {
    exec::ThreadPool pool(threads);
    options.pool = &pool;
    const auto outcome = algorithms::exhaustive_pareto(pipe, plat, options);
    ASSERT_TRUE(outcome.has_value()) << "threads=" << threads;
    EXPECT_EQ(outcome->evaluations, reference->evaluations) << "threads=" << threads;
    expect_same_front(outcome->front, reference->front, threads);
  }
}

TEST(Determinism, GeneralEnumerationAcrossThreadCounts) {
  const auto pipe = gen::random_uniform_pipeline(5, 111);
  gen::PlatformGenOptions gen_options;
  gen_options.processors = 5;
  const auto plat = gen::random_fully_heterogeneous(gen_options, 112);

  exec::ThreadPool serial(1);
  const auto reference =
      algorithms::exhaustive_general_min_latency(pipe, plat, 20'000'000, &serial);
  ASSERT_TRUE(reference.has_value());

  for (const std::size_t threads : kThreadCounts) {
    exec::ThreadPool pool(threads);
    const auto outcome =
        algorithms::exhaustive_general_min_latency(pipe, plat, 20'000'000, &pool);
    ASSERT_TRUE(outcome.has_value()) << "threads=" << threads;
    EXPECT_EQ(outcome->mapping, reference->mapping) << "threads=" << threads;
    EXPECT_EQ(outcome->latency, reference->latency) << "threads=" << threads;
  }
}

TEST(Determinism, OneToOneEnumerationAcrossThreadCounts) {
  // 4 stages on 8 processors: 1680 injections — more than one 1024-candidate
  // chunk, so the nonzero-rank unrank_injection seek at chunk boundaries is
  // actually exercised (840 at m=7 would collapse to a single chunk).
  const auto pipe = gen::random_uniform_pipeline(4, 121);
  gen::PlatformGenOptions gen_options;
  gen_options.processors = 8;
  const auto plat = gen::random_fully_heterogeneous(gen_options, 122);

  exec::ThreadPool serial(1);
  const auto reference =
      algorithms::exhaustive_one_to_one_min_latency(pipe, plat, 20'000'000, &serial);
  ASSERT_TRUE(reference.has_value());

  for (const std::size_t threads : kThreadCounts) {
    exec::ThreadPool pool(threads);
    const auto outcome =
        algorithms::exhaustive_one_to_one_min_latency(pipe, plat, 20'000'000, &pool);
    ASSERT_TRUE(outcome.has_value()) << "threads=" << threads;
    EXPECT_EQ(outcome->mapping, reference->mapping) << "threads=" << threads;
    EXPECT_EQ(outcome->latency, reference->latency) << "threads=" << threads;
  }
}

TEST(Determinism, HeuristicParetoFrontAcrossThreadCounts) {
  const auto pipe = gen::random_uniform_pipeline(6, 77);
  gen::PlatformGenOptions gen_options;
  gen_options.processors = 8;
  const auto plat = gen::random_comm_hom_het_failures(gen_options, 78);

  exec::ThreadPool serial(1);
  algorithms::ParetoDriverOptions options;
  options.pool = &serial;
  const auto reference = algorithms::heuristic_pareto_front(pipe, plat, options);

  for (const std::size_t threads : kThreadCounts) {
    exec::ThreadPool pool(threads);
    options.pool = &pool;
    expect_same_front(algorithms::heuristic_pareto_front(pipe, plat, options), reference, threads);
  }
}

// --- SIMD lane contract: every driver runs its kernel at the build's one
// lane width (util::simd::kDefaultLaneWidth), and must equal bit for bit a
// scalar walk of the same candidates in the same order, written out here.
// That pins the contract in every build (AVX2, the portable fallback, forced
// scalar) at the width the build ships. ------------------------------------

TEST(Determinism, ExhaustiveParetoEqualsTheScalarFilterOfEveryCandidate) {
  const auto pipe = gen::random_uniform_pipeline(3, 131);
  gen::PlatformGenOptions gen_options;
  gen_options.processors = 6;
  const auto plat = gen::random_fully_heterogeneous(gen_options, 132);
  const std::size_t n = pipe.stage_count();
  const std::size_t m = plat.processor_count();

  // The enumerator's flat order: interval count ascending, then
  // compositions, then groupings, both lexicographic.
  std::vector<algorithms::Solution> candidates;
  util::ParetoFront front;
  for (std::size_t p = 1; p <= std::min(n, m); ++p) {
    util::for_each_composition(n, p, [&](std::span<const std::size_t> lengths) {
      if (lengths.size() != p) return true;
      return util::for_each_grouping(m, p, [&](std::span<const std::size_t> group_of) {
        std::vector<std::vector<platform::ProcessorId>> groups(p);
        for (platform::ProcessorId u = 0; u < m; ++u) {
          if (group_of[u] < p) groups[group_of[u]].push_back(u);
        }
        algorithms::Solution s = algorithms::evaluate(
            pipe, plat, mapping::IntervalMapping::from_composition(lengths, std::move(groups)));
        front.insert({s.latency, s.failure_probability, candidates.size()});
        candidates.push_back(std::move(s));
        return true;
      });
    });
  }

  const auto outcome = algorithms::exhaustive_pareto(pipe, plat);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->evaluations, candidates.size());
  ASSERT_EQ(outcome->front.size(), front.size());
  for (std::size_t i = 0; i < front.size(); ++i) {
    const algorithms::Solution& expected = candidates[front.points()[i].payload];
    EXPECT_EQ(outcome->front[i].latency, expected.latency) << "point " << i;
    EXPECT_EQ(outcome->front[i].failure_probability, expected.failure_probability)
        << "point " << i;
    EXPECT_EQ(outcome->front[i].mapping, expected.mapping) << "point " << i;
  }
}

/// Folds one scalar-evaluated assignment into the incumbent: the first
/// strict improvement wins, as in the enumerators' rank-ordered scans.
void keep_first_best(const pipeline::Pipeline& pipe, const platform::Platform& plat,
                     const std::vector<platform::ProcessorId>& word,
                     std::optional<mapping::GeneralMapping>& best, double& best_latency) {
  const double latency = mapping::latency(pipe, plat, std::span<const platform::ProcessorId>(word));
  if (!best || latency < best_latency) {
    best.emplace(word);
    best_latency = latency;
  }
}

TEST(Determinism, GeneralEnumerationEqualsTheScalarOdometerWalk) {
  const auto pipe = gen::random_uniform_pipeline(5, 141);
  gen::PlatformGenOptions gen_options;
  gen_options.processors = 5;
  const auto plat = gen::random_fully_heterogeneous(gen_options, 142);
  const std::size_t n = pipe.stage_count();
  const std::size_t m = plat.processor_count();

  // Every stage -> processor word, digit 0 spinning fastest.
  std::optional<mapping::GeneralMapping> best;
  double best_latency = 0.0;
  std::vector<platform::ProcessorId> word(n, 0);
  for (std::size_t k = 0; k < n;) {
    keep_first_best(pipe, plat, word, best, best_latency);
    for (k = 0; k < n && ++word[k] == m; ++k) word[k] = 0;
  }

  const auto outcome = algorithms::exhaustive_general_min_latency(pipe, plat);
  ASSERT_TRUE(outcome.has_value());
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(outcome->mapping, *best);
  EXPECT_EQ(outcome->latency, best_latency);
}

/// Lexicographic depth-first walk over the injections extending `word`.
void walk_injections(const pipeline::Pipeline& pipe, const platform::Platform& plat,
                     std::vector<platform::ProcessorId>& word, std::vector<bool>& used,
                     std::optional<mapping::GeneralMapping>& best, double& best_latency) {
  if (word.size() == pipe.stage_count()) {
    keep_first_best(pipe, plat, word, best, best_latency);
    return;
  }
  for (platform::ProcessorId u = 0; u < plat.processor_count(); ++u) {
    if (used[u]) continue;
    used[u] = true;
    word.push_back(u);
    walk_injections(pipe, plat, word, used, best, best_latency);
    word.pop_back();
    used[u] = false;
  }
}

TEST(Determinism, OneToOneEnumerationEqualsTheScalarInjectionWalk) {
  // 1680 injections: more than one 1024-candidate chunk.
  const auto pipe = gen::random_uniform_pipeline(4, 151);
  gen::PlatformGenOptions gen_options;
  gen_options.processors = 8;
  const auto plat = gen::random_fully_heterogeneous(gen_options, 152);

  std::optional<mapping::GeneralMapping> best;
  double best_latency = 0.0;
  std::vector<platform::ProcessorId> word;
  std::vector<bool> used(plat.processor_count(), false);
  walk_injections(pipe, plat, word, used, best, best_latency);

  const auto outcome = algorithms::exhaustive_one_to_one_min_latency(pipe, plat);
  ASSERT_TRUE(outcome.has_value());
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(outcome->mapping, *best);
  EXPECT_EQ(outcome->latency, best_latency);
}

TEST(Determinism, BrokerWarmRepliesEqualColdAcrossThreadCounts) {
  // The service contract on top of the exec contract: at every thread count,
  // a warm-cache reply is bit-identical to the cold solve that filled the
  // cache, and the cold fronts themselves agree across thread counts.
  const auto pipe = gen::random_uniform_pipeline(4, 171);
  gen::PlatformGenOptions gen_options;
  gen_options.processors = 5;
  const auto plat = gen::random_fully_heterogeneous(gen_options, 172);

  service::SolveRequest request;
  request.instance = service::InstanceData::from(pipe, plat);
  request.objective = service::Objective::ParetoFront;

  std::vector<algorithms::ParetoSolution> reference;
  for (const std::size_t threads : kThreadCounts) {
    exec::ThreadPool pool(threads);
    service::BrokerOptions broker_options;
    broker_options.pool = &pool;
    service::Broker broker(broker_options);  // fresh cache per thread count

    const auto cold = broker.solve(request);
    ASSERT_TRUE(cold.has_value()) << "threads=" << threads;
    EXPECT_FALSE(cold->cache_hit) << "threads=" << threads;
    const auto warm = broker.solve(request);
    ASSERT_TRUE(warm.has_value()) << "threads=" << threads;
    EXPECT_TRUE(warm->cache_hit) << "threads=" << threads;
    expect_same_front(warm->front, cold->front, threads);
    EXPECT_EQ(service::front_checksum(warm->front), service::front_checksum(cold->front))
        << "threads=" << threads;

    if (reference.empty()) {
      reference = cold->front;
    } else {
      expect_same_front(cold->front, reference, threads);
    }
  }
}

TEST(Determinism, BrokerWarmFromSnapshotEqualsColdAcrossThreadCounts) {
  // The persistence extension of the contract above: a broker restarted from
  // a snapshot serves replies bit-identical to the cold solve that produced
  // the snapshot — at every thread count, and regardless of which thread
  // count wrote the snapshot (entries store solved canonical fronts, which
  // are thread-count-invariant by the exec contract).
  const auto pipe = gen::random_uniform_pipeline(4, 171);
  gen::PlatformGenOptions gen_options;
  gen_options.processors = 5;
  const auto plat = gen::random_fully_heterogeneous(gen_options, 172);

  service::SolveRequest request;
  request.instance = service::InstanceData::from(pipe, plat);
  request.objective = service::Objective::ParetoFront;

  // One cold solve (single-threaded) writes the snapshot.
  const std::string path = std::string(::testing::TempDir()) + "relap_determinism_warm.snap";
  std::vector<algorithms::ParetoSolution> reference;
  {
    exec::ThreadPool pool(1);
    service::BrokerOptions broker_options;
    broker_options.pool = &pool;
    service::Broker broker(broker_options);
    const auto cold = broker.solve(request);
    ASSERT_TRUE(cold.has_value());
    reference = cold->front;
    const auto saved = broker.save_snapshot(path);
    ASSERT_TRUE(saved.has_value());
    ASSERT_EQ(saved->entries, 1U);
  }

  for (const std::size_t threads : kThreadCounts) {
    exec::ThreadPool pool(threads);
    service::BrokerOptions broker_options;
    broker_options.pool = &pool;
    service::Broker broker(broker_options);
    ASSERT_TRUE(broker.load_snapshot(path).has_value()) << "threads=" << threads;

    const auto warm = broker.solve(request);
    ASSERT_TRUE(warm.has_value()) << "threads=" << threads;
    EXPECT_TRUE(warm->cache_hit) << "threads=" << threads;
    expect_same_front(warm->front, reference, threads);
    EXPECT_EQ(service::front_checksum(warm->front), service::front_checksum(reference))
        << "threads=" << threads;
  }
  std::remove(path.c_str());
}

TEST(Determinism, BrokerConcurrentBatchedCallersEqualColdAcrossThreadCounts) {
  // The concurrent-serving extension of the contract: callers racing through
  // the shared batch queue (`solve_batched`, the path every TCP connection
  // takes) receive fronts bit-identical to a single-threaded direct cold
  // solve — at every pool size, regardless of which caller becomes the
  // queue's drainer.
  const auto pipe = gen::random_uniform_pipeline(4, 171);
  gen::PlatformGenOptions gen_options;
  gen_options.processors = 5;
  const auto plat = gen::random_fully_heterogeneous(gen_options, 172);

  service::SolveRequest request;
  request.instance = service::InstanceData::from(pipe, plat);
  request.objective = service::Objective::ParetoFront;

  std::vector<algorithms::ParetoSolution> reference;
  {
    exec::ThreadPool pool(1);
    service::BrokerOptions broker_options;
    broker_options.pool = &pool;
    service::Broker broker(broker_options);
    const auto cold = broker.solve(request);
    ASSERT_TRUE(cold.has_value());
    reference = cold->front;
  }

  for (const std::size_t threads : kThreadCounts) {
    exec::ThreadPool pool(threads);
    service::BrokerOptions broker_options;
    broker_options.pool = &pool;
    service::Broker broker(broker_options);  // fresh cache per thread count

    constexpr std::size_t kCallers = 4;
    std::vector<std::optional<util::Expected<service::Reply>>> replies(kCallers);
    {
      std::vector<std::thread> callers;
      for (std::size_t c = 0; c < kCallers; ++c) {
        callers.emplace_back([&, c] { replies[c] = broker.solve_batched(request); });
      }
      for (std::thread& caller : callers) caller.join();
    }
    for (std::size_t c = 0; c < kCallers; ++c) {
      ASSERT_TRUE(replies[c].has_value() && replies[c]->has_value())
          << "threads=" << threads << " caller=" << c;
      expect_same_front((*replies[c])->front, reference, threads);
      EXPECT_EQ(service::front_checksum((*replies[c])->front), service::front_checksum(reference))
          << "threads=" << threads << " caller=" << c;
    }
    // Identical concurrent presentations coalesce onto one actual solve.
    EXPECT_EQ(broker.metrics().solves_total.value(), 1U) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace relap
