// Tests for the simulation arena (sim/engine.hpp SimScratch + simulate_into)
// and the batched Monte-Carlo drivers. Three guarantees are pinned here:
//  1. bit-identity: simulate_into on a reused scratch matches simulate() bit
//     for bit across random scenarios, send orders and dataset counts, and
//     scratch reuse is pure (running other scenarios in between changes
//     nothing);
//  2. zero allocation: the steady-state trial loop (draw_into +
//     simulate_into, optionally traced) performs no heap allocation, counted
//     by replacing the global allocator in this TU;
//  3. determinism: run_trials / estimate_failure_rate with the batched
//     drivers are bit-identical at 1, 2 and 8 threads, and both reproduce
//     the scalar counter walk of their draws.

#include "relap/sim/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <vector>

#include "relap/exec/thread_pool.hpp"
#include "relap/gen/paper_instances.hpp"
#include "relap/gen/pipelines.hpp"
#include "relap/gen/platforms.hpp"
#include "relap/platform/builders.hpp"
#include "relap/sim/monte_carlo.hpp"
#include "relap/util/rng.hpp"

namespace {

std::atomic<std::size_t> g_allocation_count{0};

std::size_t allocation_count() { return g_allocation_count.load(std::memory_order_relaxed); }

void* counted_allocate(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_allocate_aligned(std::size_t size, std::size_t alignment) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, alignment < sizeof(void*) ? sizeof(void*) : alignment,
                     size == 0 ? alignment : size) == 0) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

// Replaceable global allocation functions: every operator new in this test
// binary routes through the counter. The zero-allocation test below measures
// the counter across the engine's steady-state trial loop.
void* operator new(std::size_t size) { return counted_allocate(size); }
void* operator new[](std::size_t size) { return counted_allocate(size); }
void* operator new(std::size_t size, std::align_val_t alignment) {
  return counted_allocate_aligned(size, static_cast<std::size_t>(alignment));
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return counted_allocate_aligned(size, static_cast<std::size_t>(alignment));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace relap::sim {
namespace {

void expect_same_result(const SimResult& a, const SimResult& b, const char* context) {
  ASSERT_EQ(a.datasets.size(), b.datasets.size()) << context;
  EXPECT_EQ(a.application_failed, b.application_failed) << context;
  EXPECT_EQ(a.makespan, b.makespan) << context;
  for (std::size_t d = 0; d < a.datasets.size(); ++d) {
    EXPECT_EQ(a.datasets[d].completed, b.datasets[d].completed) << context << " dataset " << d;
    EXPECT_EQ(a.datasets[d].injection_time, b.datasets[d].injection_time)
        << context << " dataset " << d;
    EXPECT_EQ(a.datasets[d].completion_time, b.datasets[d].completion_time)
        << context << " dataset " << d;
  }
}

TEST(SimScratch, SimulateIntoMatchesSimulateBitForBit) {
  const auto pipe = gen::random_uniform_pipeline(6, 901);
  gen::PlatformGenOptions options;
  options.processors = 9;
  options.fp_min = 0.2;
  options.fp_max = 0.8;
  const auto plat = gen::random_fully_heterogeneous(options, 902);
  const mapping::IntervalMapping m(
      {{{0, 1}, {0, 3}}, {{2, 3}, {1, 4, 5}}, {{4, 5}, {2, 6, 7}}});
  util::Rng rng(903);

  for (const SendOrder send_order : {SendOrder::ById, SendOrder::WorstCaseLast}) {
    for (const std::size_t datasets : {std::size_t{1}, std::size_t{3}}) {
      SimOptions sim_options;
      sim_options.send_order = send_order;
      sim_options.dataset_count = datasets;

      SimScratch scratch(plat.processor_count(), m.interval_count());
      scratch.bind(pipe, plat, m, send_order);
      SimResult reused;
      for (int i = 0; i < 200; ++i) {
        FailureScenario::draw_into(scratch.scenario(), plat, 50.0, rng);
        // Copy: simulate() must see the identical scenario after
        // simulate_into ran on (and possibly mutated nothing of) the buffer.
        const FailureScenario scenario = scratch.scenario();
        simulate_into(scratch, scratch.scenario(), sim_options, reused);
        const SimResult fresh = simulate(pipe, plat, m, scenario, sim_options);
        expect_same_result(reused, fresh, "iteration");
      }
    }
  }
}

TEST(SimScratch, ReuseIsPureAcrossScenarios) {
  const auto pipe = gen::fig5_pipeline();
  const auto plat = gen::fig5_platform();
  const auto m = gen::fig5_two_interval_mapping();

  SimScratch scratch;
  scratch.bind(pipe, plat, m, SendOrder::ById);
  SimOptions sim_options;
  sim_options.dataset_count = 2;

  util::Rng rng(905);
  SimResult first;
  const FailureScenario a = FailureScenario::draw(plat, 30.0, rng);
  simulate_into(scratch, a, sim_options, first);

  // Interleave other scenarios (including adversarial fail-after-receive
  // markers) on the same scratch, then re-run A: identical bits.
  for (int i = 0; i < 50; ++i) {
    SimResult other;
    const FailureScenario b = FailureScenario::draw(plat, 30.0, rng);
    simulate_into(scratch, b, sim_options, other);
  }
  SimResult worst;
  simulate_into(scratch, FailureScenario::worst_case(pipe, plat, m), sim_options,
                worst);

  SimResult again;
  simulate_into(scratch, a, sim_options, again);
  expect_same_result(first, again, "re-run of scenario A");
}

TEST(SimScratch, RebindSwitchesInstances) {
  const auto pipe = gen::fig5_pipeline();
  const auto plat = gen::fig5_platform();
  const auto single = gen::fig5_single_interval_mapping();
  const auto two = gen::fig5_two_interval_mapping();

  SimScratch scratch;
  SimResult out;
  const FailureScenario none = FailureScenario::none(plat.processor_count());

  scratch.bind(pipe, plat, single, SendOrder::ById);
  simulate_into(scratch, none, {}, out);
  const SimResult single_fresh = simulate(pipe, plat, single, none, {});
  expect_same_result(out, single_fresh, "single-interval after first bind");

  scratch.bind(pipe, plat, two, SendOrder::ById);
  simulate_into(scratch, none, {}, out);
  const SimResult two_fresh = simulate(pipe, plat, two, none, {});
  expect_same_result(out, two_fresh, "two-interval after rebind");
}

TEST(SimScratch, TracedRunsComposeWithScratchReuse) {
  const auto pipe = pipeline::Pipeline({4.0}, {2.0, 6.0});
  const auto plat = platform::make_fully_homogeneous(1, 2.0, 2.0, 0.0);
  const auto m = mapping::IntervalMapping::single_interval(1, {0});

  SimScratch scratch;
  scratch.bind(pipe, plat, m, SendOrder::ById);
  Trace trace;
  SimOptions options;
  options.trace = &trace;
  SimResult out;

  simulate_into(scratch, FailureScenario::none(1), options, out);
  ASSERT_EQ(trace.size(), 3u);
  // Appending a second run extends the same flat buffer…
  simulate_into(scratch, FailureScenario::none(1), options, out);
  EXPECT_EQ(trace.size(), 6u);
  // …and clear() + re-record reuses it.
  trace.clear();
  simulate_into(scratch, FailureScenario::none(1), options, out);
  EXPECT_EQ(trace.size(), 3u);
  EXPECT_DOUBLE_EQ(trace.ops()[2].end, 6.0);
}

TEST(SimScratchAllocation, SteadyStateTrialLoopIsAllocationFree) {
  const auto pipe = gen::random_uniform_pipeline(6, 911);
  gen::PlatformGenOptions options;
  options.processors = 9;
  options.fp_min = 0.2;
  options.fp_max = 0.7;
  const auto plat = gen::random_comm_hom_het_failures(options, 912);
  const mapping::IntervalMapping m(
      {{{0, 1}, {0, 3}}, {{2, 3}, {1, 4, 5}}, {{4, 5}, {2, 6, 7}}});
  SimOptions sim_options;
  sim_options.dataset_count = 2;

  util::Rng rng(913);
  SimScratch scratch;
  scratch.bind(pipe, plat, m, sim_options.send_order);
  SimResult run;

  // Warm up: sizes the scenario, state and result buffers. The failure-free
  // run bounds the operation count of every failure scenario on this
  // instance, so one traced failure-free run also sizes the trace buffer.
  Trace trace;
  SimOptions traced = sim_options;
  traced.trace = &trace;
  FailureScenario::draw_into(scratch.scenario(), plat, 40.0, rng);
  simulate_into(scratch, scratch.scenario(), sim_options, run);
  trace.clear();
  simulate_into(scratch, FailureScenario::none(plat.processor_count()), traced,
                run);

  double sink = 0.0;
  const std::size_t before = allocation_count();
  for (int t = 0; t < 2000; ++t) {
    util::Rng trial_rng = rng.split();
    FailureScenario::draw_into(scratch.scenario(), plat, 40.0, trial_rng);
    trace.clear();
    simulate_into(scratch, scratch.scenario(), traced, run);
    sink += run.makespan + static_cast<double>(trace.size());
  }
  const std::size_t after = allocation_count();
  EXPECT_EQ(after, before) << "steady-state trial loop allocated " << (after - before)
                           << " times over 2000 trials";
  EXPECT_GT(sink, 0.0);  // keep the loop observable
}

void expect_same_estimate(const FailureRateEstimate& a, const FailureRateEstimate& b,
                          std::size_t threads) {
  EXPECT_EQ(a.empirical, b.empirical) << "threads=" << threads;
  EXPECT_EQ(a.analytic, b.analytic) << "threads=" << threads;
  EXPECT_EQ(a.ci95.low, b.ci95.low) << "threads=" << threads;
  EXPECT_EQ(a.ci95.high, b.ci95.high) << "threads=" << threads;
}

TEST(SimScratchDeterminism, BatchedDriversAreBitIdenticalAcrossThreadCounts) {
  const auto pipe = gen::fig5_pipeline();
  const auto plat = gen::fig5_platform();
  const auto m = gen::fig5_two_interval_mapping();

  exec::ThreadPool serial(1);
  TrialOptions trial_options;
  trial_options.trials = 500;
  trial_options.dataset_count = 2;
  trial_options.pool = &serial;
  const TrialStats trial_reference = run_trials(pipe, plat, m, trial_options);

  MonteCarloOptions mc_options;
  mc_options.trials = 20'000;
  mc_options.pool = &serial;
  const FailureRateEstimate mc_reference = estimate_failure_rate(plat, m, mc_options);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    exec::ThreadPool pool(threads);
    trial_options.pool = &pool;
    const TrialStats stats = run_trials(pipe, plat, m, trial_options);
    expect_same_estimate(stats.failure, trial_reference.failure, threads);
    EXPECT_EQ(stats.failure_free_latency, trial_reference.failure_free_latency)
        << "threads=" << threads;
    EXPECT_EQ(stats.latency.count(), trial_reference.latency.count()) << "threads=" << threads;
    EXPECT_EQ(stats.latency.mean(), trial_reference.latency.mean()) << "threads=" << threads;
    EXPECT_EQ(stats.latency.variance(), trial_reference.latency.variance())
        << "threads=" << threads;
    EXPECT_EQ(stats.latency.min(), trial_reference.latency.min()) << "threads=" << threads;
    EXPECT_EQ(stats.latency.max(), trial_reference.latency.max()) << "threads=" << threads;

    mc_options.pool = &pool;
    expect_same_estimate(estimate_failure_rate(plat, m, mc_options), mc_reference, threads);
  }
}

TEST(SimScratchLanes, DrawIndexedMatchesTheScalarCounterWalk) {
  // The counter scheme pinned down: trial t uses counters t*2m + 2u
  // (breakdown Bernoulli) and t*2m + 2u + 1 (death time) for processor u.
  // Re-derive the scenario with scalar counter_hash calls and demand bit
  // equality — and draws must be independent of call order (re-drawing an
  // earlier trial reproduces it exactly).
  gen::PlatformGenOptions options;
  options.processors = 9;
  options.fp_min = 0.1;
  options.fp_max = 0.9;
  const auto plat = gen::random_fully_heterogeneous(options, 921);
  const std::size_t m = plat.processor_count();
  const double horizon = 37.5;
  const std::uint64_t seed = 0xABCDEF0123ULL;

  FailureScenario scenario;
  FailureScenario replay;
  for (const std::uint64_t t : {std::uint64_t{0}, std::uint64_t{7}, std::uint64_t{123456}}) {
    FailureScenario::draw_indexed(scenario, plat, horizon, seed, t);
    for (platform::ProcessorId u = 0; u < m; ++u) {
      const std::uint64_t c = t * 2 * m + 2 * u;
      const bool dies = util::to_unit_double(util::counter_hash(seed, c)) < plat.failure_prob(u);
      if (dies) {
        const double expected = horizon * util::to_unit_double(util::counter_hash(seed, c + 1));
        EXPECT_EQ(scenario.failure_time[u], expected) << "trial " << t << " proc " << u;
      } else {
        EXPECT_EQ(scenario.failure_time[u], std::numeric_limits<double>::infinity())
            << "trial " << t << " proc " << u;
      }
      EXPECT_FALSE(scenario.fail_after_first_receive[u]);
    }
    // Out-of-order replay of the same trial index is bit-identical.
    FailureScenario::draw_indexed(replay, plat, horizon, seed, 999);
    FailureScenario::draw_indexed(replay, plat, horizon, seed, t);
    EXPECT_EQ(replay.failure_time, scenario.failure_time) << "trial " << t;
  }
}

TEST(SimScratchLanes, EstimateFailureRateEqualsTheScalarCounterWalk) {
  // The Bernoulli lane kernel against the counter scheme written out:
  // replica i (group-major) of trial t draws counter t*R + i, a group is
  // wiped when every replica draws below its fp, and a trial fails when any
  // group is wiped. The trial count leaves a partial last lane step, and
  // the failure count must match on every platform class.
  exec::ThreadPool serial(1);
  const auto check = [&](const platform::Platform& plat, const mapping::IntervalMapping& m) {
    MonteCarloOptions mc;
    mc.trials = 30'003;
    mc.pool = &serial;
    std::size_t replicas = 0;
    for (const mapping::IntervalAssignment& a : m.intervals()) replicas += a.processors.size();
    std::size_t failures = 0;
    for (std::uint64_t t = 0; t < mc.trials; ++t) {
      std::uint64_t counter = t * replicas;
      bool failed = false;
      for (const mapping::IntervalAssignment& a : m.intervals()) {
        bool wiped = true;
        for (const platform::ProcessorId u : a.processors) {
          wiped &= util::to_unit_double(util::counter_hash(mc.seed, counter++)) <
                   plat.failure_prob(u);
        }
        failed |= wiped;
      }
      failures += failed ? 1 : 0;
    }
    const FailureRateEstimate estimate = estimate_failure_rate(plat, m, mc);
    EXPECT_EQ(estimate.empirical, static_cast<double>(failures) / static_cast<double>(mc.trials))
        << m.describe();
    EXPECT_EQ(estimate.trials, mc.trials);
  };

  check(gen::fig5_platform(), gen::fig5_two_interval_mapping());
  {
    gen::PlatformGenOptions options;
    options.processors = 7;
    options.fp_min = 0.05;
    options.fp_max = 0.6;
    check(gen::random_comm_hom_het_failures(options, 931),
          mapping::IntervalMapping({{{0, 1}, {0, 3}}, {{2, 3}, {1, 4, 6}}}));
    check(gen::random_fully_heterogeneous(options, 932),
          mapping::IntervalMapping({{{0, 2}, {2, 5}}, {{3, 3}, {0, 1, 6}}}));
    check(gen::random_fully_homogeneous(options, 933),
          mapping::IntervalMapping({{{0, 3}, {0, 1, 2, 3, 4, 5, 6}}}));
  }
}

TEST(SimScratchAllocation, IndexedTrialLoopIsAllocationFree) {
  // The run_trials steady state: counter-addressed scenario draws into a
  // bound scratch + simulate_into, zero heap traffic per trial.
  const auto pipe = gen::random_uniform_pipeline(6, 941);
  gen::PlatformGenOptions options;
  options.processors = 9;
  options.fp_min = 0.2;
  options.fp_max = 0.7;
  const auto plat = gen::random_comm_hom_het_failures(options, 942);
  const mapping::IntervalMapping m(
      {{{0, 1}, {0, 3}}, {{2, 3}, {1, 4, 5}}, {{4, 5}, {2, 6, 7}}});
  SimOptions sim_options;
  sim_options.dataset_count = 2;

  SimScratch scratch;
  scratch.bind(pipe, plat, m, sim_options.send_order);
  SimResult run;
  FailureScenario::draw_indexed(scratch.scenario(), plat, 40.0, 17, 0);  // sizes the buffers
  simulate_into(scratch, scratch.scenario(), sim_options, run);

  double sink = 0.0;
  const std::size_t before = allocation_count();
  for (std::uint64_t t = 1; t <= 2000; ++t) {
    FailureScenario::draw_indexed(scratch.scenario(), plat, 40.0, 17, t);
    simulate_into(scratch, scratch.scenario(), sim_options, run);
    sink += run.makespan;
  }
  const std::size_t after = allocation_count();
  EXPECT_EQ(after, before) << "indexed trial loop allocated " << (after - before)
                           << " times over 2000 trials";
  EXPECT_GT(sink, 0.0);
}

}  // namespace
}  // namespace relap::sim
