#pragma once

/// \file monte_carlo.hpp
/// Monte-Carlo validation of the analytic formulas.
///
/// Two estimators:
///  * `estimate_failure_rate` draws Bernoulli failure realizations directly
///    (no event simulation needed — the paper's FP is exactly the
///    probability that some replica group is wiped out) and compares the
///    empirical frequency against the closed-form FP;
///  * `run_trials` drives the full engine per realization, collecting
///    latency statistics of surviving runs and the empirical failure rate
///    under actual execution semantics (a run can also fail because the
///    designated sender dies mid-transfer, so its rate is >= the analytic
///    FP; with failure times at the horizon's far end the two coincide).
///
/// Both are batched drivers: `estimate_failure_rate` flattens the mapping
/// into SoA replica arrays once per call, and `run_trials` binds one
/// `SimScratch` arena per parallel chunk, samples scenarios in place and
/// recycles the result buffers — zero heap allocations per steady-state
/// trial, with results bit-identical at any thread count (fixed chunk
/// grids, per-chunk split RNG streams, index-order Kahan/Welford merges).

#include <cstdint>

#include "relap/mapping/interval_mapping.hpp"
#include "relap/pipeline/pipeline.hpp"
#include "relap/platform/platform.hpp"
#include "relap/sim/engine.hpp"
#include "relap/util/stats.hpp"

namespace relap::exec {
class ThreadPool;
}  // namespace relap::exec

namespace relap::sim {

struct MonteCarloOptions {
  std::size_t trials = 100'000;
  std::uint64_t seed = 0xFEEDFACE12345ULL;
  /// Pool for the parallel trial loop; null uses `exec::ThreadPool::shared()`.
  /// Results are bit-identical at any thread count: every replica draw is a
  /// `util::counter_hash` at the absolute counter `trial * R + replica`, so
  /// the realization is independent of the chunk grid and of the
  /// `util::simd::kDefaultLaneWidth` trials the kernel draws per step.
  exec::ThreadPool* pool = nullptr;
};

struct FailureRateEstimate {
  double empirical = 0.0;
  double analytic = 0.0;
  /// Wilson score 95% interval of the empirical estimate. Unlike the normal
  /// approximation it keeps a positive width when `empirical` is exactly 0
  /// or 1, so `consistent()` cannot degenerate into an exact-equality check.
  util::ProportionInterval ci95;
  /// Half-width of `ci95` (kept as a field for reporting convenience).
  double ci95_half_width = 0.0;
  std::size_t trials = 0;

  /// Does the 95% interval, widened by `slack`, contain `analytic`?
  /// (the tests' acceptance check)
  [[nodiscard]] bool consistent(double slack = 0.0) const;
};

/// Direct Bernoulli estimate of the application failure probability.
[[nodiscard]] FailureRateEstimate estimate_failure_rate(const platform::Platform& platform,
                                                        const mapping::IntervalMapping& mapping,
                                                        const MonteCarloOptions& options = {});

struct TrialStats {
  FailureRateEstimate failure;
  /// Worst per-data-set latency of each fully successful trial.
  util::StreamingStats latency;
  /// Latency of the failure-free reference run.
  double failure_free_latency = 0.0;
};

struct TrialOptions {
  std::size_t trials = 2'000;
  std::uint64_t seed = 0xFEEDFACE12345ULL;
  std::size_t dataset_count = 1;
  /// Failure times are drawn uniform in [0, horizon_factor * failure-free
  /// makespan); a factor > 1 means failures can land after the run.
  double horizon_factor = 1.0;
  /// Pool for the parallel trial loop; null uses `exec::ThreadPool::shared()`.
  /// Scenarios are counter-addressed per trial (`FailureScenario::
  /// draw_indexed`), so results are bit-identical at any thread count or
  /// chunk grain by construction; the event-driven engine itself stays
  /// scalar (its control flow is data-dependent, which SIMD lanes cannot
  /// follow bit-exactly).
  exec::ThreadPool* pool = nullptr;
};

/// Full-engine Monte Carlo.
[[nodiscard]] TrialStats run_trials(const pipeline::Pipeline& pipeline,
                                    const platform::Platform& platform,
                                    const mapping::IntervalMapping& mapping,
                                    const TrialOptions& options = {});

}  // namespace relap::sim
