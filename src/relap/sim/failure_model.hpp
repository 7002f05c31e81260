#pragma once

/// \file failure_model.hpp
/// Failure scenarios for the discrete-event simulator.
///
/// The paper's model is a *per-execution* failure probability: processor u
/// breaks down at some point during the (long) run with probability fp_u,
/// independently. A `FailureScenario` fixes one realization: an absolute
/// death time per processor (+infinity = survives), plus an optional
/// "dies immediately after its first completed receive" marker used to
/// build the adversarial worst case behind Equations (1)/(2) — the paper's
/// "the first processors involved in the replication fail during execution":
/// the serialized input transfers are all paid, but the replica contributes
/// no computation.

#include <cstdint>
#include <vector>

#include "relap/mapping/interval_mapping.hpp"
#include "relap/pipeline/pipeline.hpp"
#include "relap/platform/platform.hpp"
#include "relap/util/rng.hpp"

namespace relap::sim {

struct FailureScenario {
  /// Absolute death time per processor; +infinity means it never fails.
  std::vector<double> failure_time;
  /// When set, the processor dies the instant its first receive completes
  /// (overrides failure_time).
  std::vector<bool> fail_after_first_receive;

  /// No failures at all.
  [[nodiscard]] static FailureScenario none(std::size_t processor_count);

  /// Random realization of the paper's model: processor u dies with
  /// probability fp_u, at a time uniform in [0, horizon).
  [[nodiscard]] static FailureScenario draw(const platform::Platform& platform, double horizon,
                                            util::Rng& rng);

  /// In-place variant of `draw` for the Monte-Carlo hot loop: consumes the
  /// RNG stream identically but writes into `scenario`'s existing buffers,
  /// so a scenario sized to the platform is re-sampled without allocating
  /// (the batched trial driver samples into `SimScratch::scenario()`).
  static void draw_into(FailureScenario& scenario, const platform::Platform& platform,
                        double horizon, util::Rng& rng);

  /// Counter-addressed variant of `draw_into`: every random decision of
  /// trial `trial_index` is a `util::counter_hash` draw at an absolute
  /// counter (2 per processor — breakdown Bernoulli, then death time), so
  /// the realization depends only on (seed, trial_index, u). `run_trials`
  /// samples with this, which makes its results invariant to thread count
  /// and chunk grid *by construction* instead of by careful stream
  /// splitting. Allocation-free once `scenario` is sized to the platform.
  static void draw_indexed(FailureScenario& scenario, const platform::Platform& platform,
                           double horizon, std::uint64_t seed, std::uint64_t trial_index);

  /// The adversarial scenario behind the latency formulas: in every replica
  /// group of `mapping`, all processors except the one with the largest
  /// Eq. (2) sender-side term die right after receiving their input.
  [[nodiscard]] static FailureScenario worst_case(const pipeline::Pipeline& pipeline,
                                                  const platform::Platform& platform,
                                                  const mapping::IntervalMapping& mapping);
};

/// The Eq. (2) sender-side worst-case survivor of a replica group: the
/// processor maximizing compute + serialized-output time. `next_group` is
/// null for the last interval (output goes to P_out). Exposed for tests.
[[nodiscard]] platform::ProcessorId worst_case_survivor(
    const pipeline::Pipeline& pipeline, const platform::Platform& platform,
    const mapping::IntervalAssignment& interval,
    const std::vector<platform::ProcessorId>* next_group);

}  // namespace relap::sim
