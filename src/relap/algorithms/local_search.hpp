#pragma once

/// \file local_search.hpp
/// Hill-climbing refinement of interval mappings under a threshold
/// constraint. Used to polish heuristic candidates and as a standalone
/// baseline in the heuristics bench.
///
/// Neighborhood moves:
///  * shift an interval boundary left/right by one stage;
///  * merge two adjacent intervals (union of their replica groups);
///  * split an interval at a stage boundary (its group split between halves);
///  * add an unused processor to a replica group;
///  * remove a processor from a group of size >= 2;
///  * swap a group member for an unused processor.
///
/// The search takes the best improving neighbor per round (steepest
/// descent) under the constrained comparator from types.hpp and stops at a
/// local optimum or the iteration cap. Fully deterministic: the neighborhood
/// is scanned in a fixed order, on the calling thread.

#include "relap/algorithms/types.hpp"

namespace relap::algorithms {

struct LocalSearchOptions {
  /// Maximum descent rounds; each round scans the whole neighborhood.
  std::size_t max_rounds = 200;
};

/// Minimizes FP subject to latency <= `max_latency`, starting from `start`.
/// Never returns a solution worse than `start` under the constrained
/// comparator.
[[nodiscard]] Solution local_search_min_fp(const pipeline::Pipeline& pipeline,
                                           const platform::Platform& platform, Solution start,
                                           double max_latency,
                                           const LocalSearchOptions& options = {});

/// Minimizes latency subject to FP <= `max_failure_probability`.
[[nodiscard]] Solution local_search_min_latency(const pipeline::Pipeline& pipeline,
                                                const platform::Platform& platform, Solution start,
                                                double max_failure_probability,
                                                const LocalSearchOptions& options = {});

}  // namespace relap::algorithms
