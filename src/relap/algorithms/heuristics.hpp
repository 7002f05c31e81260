#pragma once

/// \file heuristics.hpp
/// Polynomial heuristics for the problem classes the paper proves NP-hard
/// (Fully Heterogeneous, Theorem 7) or leaves open (Communication
/// Homogeneous with heterogeneous failures, Section 4.4).
///
/// All heuristics are *candidate generators*: they emit interval mappings
/// into a sink, and the constrained solvers / Pareto drivers pick from the
/// emitted set. This keeps one implementation per heuristic serving all
/// three uses (min FP under L, min latency under FP, Pareto front).
///
/// Heuristics (each named for benches in bench_heuristics_comm_het):
///  * `single-interval` — every "k most reliable / k fastest processors with
///    speed >= floor" single-interval mapping; on identical-link platforms
///    this sweep contains the exact single-interval optimum
///    (single_interval.hpp).
///  * `greedy-split` — latency-greedy descent from the lowest-latency
///    single-processor mapping: each round tries every interval, cut and
///    unused processor, with the new processor on either half, and keeps
///    the lowest-latency split while it improves latency. Emits every tried
///    split, plus a replication ladder (extra reliable unused processors on
///    each interval) of the start and of every kept split.
///  * `beam` — beam search over stage boundaries: a state is (boundary,
///    used-processor set, group of the yet-unsent last interval, partial
///    latency, log survival); transitions extend the mapping by one interval
///    with a candidate group drawn from the unused processors (k most
///    reliable / k fastest / k best speed-reliability blend, k <= 16), and
///    64 states survive per boundary. Exact for the emitted structure under
///    Eq. (2) because the pending interval's sender-side cost is added only
///    when its successor group is known.
///
/// Every generator scores its candidates with the scalar oracle
/// (`evaluate()`, types.hpp) on the calling thread and feeds the sink in a
/// fixed order, so candidates and ties never depend on a thread count.
/// Scoring the beam's 64 finals is a tiny share of the search that finds
/// them; the lane kernel (mapping_lanes.hpp) serves the enumerators only.
///
/// Processor counts are capped at 64 by the beam state's bitmask; the other
/// heuristics have no such cap.

#include <functional>

#include "relap/algorithms/types.hpp"
#include "relap/util/cancel.hpp"

namespace relap::algorithms {

struct HeuristicOptions {
  /// Optional cooperative cancellation (util/cancel.hpp): polled between
  /// generators and per beam level. A tripped token makes the constrained
  /// entry points return a "cancelled" error; a completed result is never
  /// altered.
  const util::CancelToken* cancel = nullptr;
};

/// Receives each candidate mapping a heuristic generates.
using CandidateSink = std::function<void(Solution)>;

void enumerate_single_interval_candidates(const pipeline::Pipeline& pipeline,
                                          const platform::Platform& platform,
                                          const HeuristicOptions& options, const CandidateSink& sink);

void enumerate_greedy_split_candidates(const pipeline::Pipeline& pipeline,
                                       const platform::Platform& platform,
                                       const HeuristicOptions& options, const CandidateSink& sink);

void enumerate_beam_candidates(const pipeline::Pipeline& pipeline,
                               const platform::Platform& platform,
                               const HeuristicOptions& options, const CandidateSink& sink);

/// Runs every generator above (and polishes the constrained winners with
/// local search, see local_search.hpp) and returns the best candidate for
/// "minimize FP subject to latency <= L". Errors: "infeasible" if no
/// candidate meets L.
[[nodiscard]] Result heuristic_min_fp_for_latency(const pipeline::Pipeline& pipeline,
                                                  const platform::Platform& platform,
                                                  double max_latency,
                                                  const HeuristicOptions& options = {});

/// Same for "minimize latency subject to FP <= F".
[[nodiscard]] Result heuristic_min_latency_for_fp(const pipeline::Pipeline& pipeline,
                                                  const platform::Platform& platform,
                                                  double max_failure_probability,
                                                  const HeuristicOptions& options = {});

}  // namespace relap::algorithms
