#pragma once

/// \file exhaustive.hpp
/// Exhaustive (exponential) baselines: ground truth for the NP-hard and open
/// problem classes, and the oracle every polynomial algorithm and heuristic
/// is tested against.
///
/// The interval enumerator walks every partition of the n stages into p
/// intervals (compositions of n) crossed with every assignment of p disjoint
/// non-empty replica groups out of the m processors. The count grows as
/// roughly (p+1)^m per composition, so a `max_evaluations` budget guards
/// every entry point; exceeding it yields a "budget" error rather than a
/// silently wrong "optimum" — an incomplete exhaustive search certifies
/// nothing.
///
/// Separate enumerators cover general mappings (m^n assignments) and
/// one-to-one mappings (m!/(m-n)! injections) for cross-checking Theorems 3
/// and 4 on small instances.

#include <cstdint>
#include <vector>

#include "relap/algorithms/types.hpp"
#include "relap/util/cancel.hpp"

namespace relap::exec {
class ThreadPool;
}  // namespace relap::exec

namespace relap::algorithms {

struct ExhaustiveOptions {
  /// Maximum number of candidate mappings evaluated before giving up.
  /// Whether the budget suffices is decided *upfront* from the closed-form
  /// candidate counts (the per-p grouping counts are exact), so an
  /// over-budget call fails fast instead of burning the whole budget first.
  std::uint64_t max_evaluations = 20'000'000;
  /// Optional structural caps, useful for ablations (SIZE_MAX = no cap).
  std::size_t max_intervals = static_cast<std::size_t>(-1);
  std::size_t max_replication = static_cast<std::size_t>(-1);
  /// Pool for the parallel enumeration; null uses
  /// `exec::ThreadPool::shared()`. The flat (composition x grouping)
  /// candidate index space — p-blocks in increasing interval count,
  /// compositions lexicographic within a block, groupings lexicographic
  /// within a composition — is cut into fixed-size chunks via rank/unrank
  /// and the per-chunk results merged in chunk order, so the outcome is
  /// identical at any thread count and chunks stay uniform even when one
  /// composition dominates the candidate count.
  /// Candidates are evaluated `util::simd::kDefaultLaneWidth` at a time
  /// through `LaneEvalBatch`, which follows the scalar oracle term for term,
  /// so every result is bit-identical to a scalar walk of the same order.
  exec::ThreadPool* pool = nullptr;
  /// Optional cooperative cancellation (util/cancel.hpp): polled at chunk
  /// granularity by the parallel drivers. A tripped token makes the entry
  /// point return a "cancelled" error; it never alters a completed result.
  const util::CancelToken* cancel = nullptr;
};

/// One point of a latency/FP Pareto front together with a witness mapping.
struct ParetoSolution {
  double latency = 0.0;
  double failure_probability = 0.0;
  mapping::IntervalMapping mapping;
};

struct ParetoOutcome {
  /// Non-dominated solutions sorted by increasing latency.
  std::vector<ParetoSolution> front;
  /// Candidates evaluated (for the complexity benches).
  std::uint64_t evaluations = 0;
};

/// The exact latency/FP Pareto front over all interval mappings.
[[nodiscard]] util::Expected<ParetoOutcome> exhaustive_pareto(const pipeline::Pipeline& pipeline,
                                                              const platform::Platform& platform,
                                                              const ExhaustiveOptions& options = {});

/// Exact minimum failure probability subject to latency <= L, over all
/// interval mappings. Errors: "infeasible", "budget".
[[nodiscard]] Result exhaustive_min_fp_for_latency(const pipeline::Pipeline& pipeline,
                                                   const platform::Platform& platform,
                                                   double max_latency,
                                                   const ExhaustiveOptions& options = {});

/// Exact minimum latency subject to failure probability <= FP.
[[nodiscard]] Result exhaustive_min_latency_for_fp(const pipeline::Pipeline& pipeline,
                                                   const platform::Platform& platform,
                                                   double max_failure_probability,
                                                   const ExhaustiveOptions& options = {});

/// Tri-criteria probe (the paper's Section 5 future work, using the period
/// model of mapping/throughput.hpp): exact minimum failure probability
/// subject to latency <= L *and* period <= P. A (latency, FP) Pareto front
/// cannot answer this — period is an independent third axis — so the
/// enumeration applies the period filter directly.
[[nodiscard]] Result exhaustive_min_fp_for_latency_and_period(
    const pipeline::Pipeline& pipeline, const platform::Platform& platform, double max_latency,
    double max_period, const ExhaustiveOptions& options = {});

/// Exact minimum-latency general mapping by enumerating all m^n assignments
/// (oracle for Theorem 4's shortest-path construction). Parallelized over
/// uniform chunks of the base-m rank space (digit 0 fastest — the serial
/// odometer order); results are identical at any thread count, with ties
/// resolved to the lowest rank exactly as the serial first-wins scan did.
[[nodiscard]] GeneralResult exhaustive_general_min_latency(
    const pipeline::Pipeline& pipeline, const platform::Platform& platform,
    std::uint64_t max_evaluations = 20'000'000, exec::ThreadPool* pool = nullptr);

/// Exact minimum-latency one-to-one mapping by enumerating all injections
/// (oracle for the Held-Karp solver). Parallelized over uniform chunks of
/// the lexicographic injection rank space (the serial DFS order), with the
/// same lowest-rank tie-breaking guarantee as the general enumerator.
[[nodiscard]] GeneralResult exhaustive_one_to_one_min_latency(
    const pipeline::Pipeline& pipeline, const platform::Platform& platform,
    std::uint64_t max_evaluations = 20'000'000, exec::ThreadPool* pool = nullptr);

/// Number of interval-mapping candidates the exhaustive enumerator would
/// visit on an (n, m) instance — used by benches to report search-space
/// sizes and by callers to predict budget feasibility.
[[nodiscard]] std::uint64_t interval_mapping_count(std::size_t stages, std::size_t processors);

}  // namespace relap::algorithms
