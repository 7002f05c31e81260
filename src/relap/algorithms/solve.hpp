#pragma once

/// \file solve.hpp
/// The library facade: pick the right algorithm for the platform class.
///
/// Dispatch mirrors the paper's complexity landscape:
///  * Fully Homogeneous (any failures)        -> Algorithms 1/2, exact;
///  * Comm. Homogeneous + Failure Homogeneous -> Algorithms 3/4, exact;
///  * Comm. Homogeneous + Failure Het.        -> open problem: exhaustive
///    when the search space fits the budget, otherwise heuristics;
///  * Fully Heterogeneous                     -> NP-hard (Theorem 7): same
///    exhaustive-or-heuristic policy.
///
/// The report says which algorithm ran and whether the answer is certified
/// optimal, so callers (and the benches) can tell exact answers from
/// best-effort ones.

#include <string>

#include "relap/algorithms/exhaustive.hpp"
#include "relap/algorithms/heuristics.hpp"
#include "relap/algorithms/types.hpp"

namespace relap::algorithms {

enum class Method {
  Auto,        ///< class-based dispatch described above
  Exact,       ///< polynomial algorithm or exhaustive; error if intractable
  Heuristic,   ///< always use the heuristic suite
  Exhaustive,  ///< always use exhaustive enumeration (budget permitting)
};

struct SolveOptions {
  Method method = Method::Auto;
  /// Auto mode switches from exhaustive to heuristics above this many
  /// candidate mappings (see exhaustive.hpp's interval_mapping_count).
  std::uint64_t auto_exhaustive_budget = 2'000'000;
  /// Latency thresholds swept when `solve_pareto_front` falls back to the
  /// heuristic front (pareto_driver.hpp); ignored on the exhaustive path,
  /// which enumerates the exact front directly.
  std::size_t pareto_thresholds = 24;
  /// Enumeration caps, plus the pool and cancellation token every path runs
  /// on: the enumeration, the front sweep, and the constrained heuristics
  /// (which read only the token).
  ExhaustiveOptions exhaustive;
};

struct SolveReport {
  Solution solution;
  /// Name of the algorithm that produced the solution (for logs/benches).
  std::string algorithm;
  /// True iff the answer is certified optimal.
  bool exact = false;
};

/// Result of `solve_pareto_front`: the front plus the same provenance a
/// `SolveReport` carries — this is the facade the service broker caches, so
/// callers can tell an exact front from a best-effort one after a cache hit.
struct FrontReport {
  std::vector<ParetoSolution> front;
  std::string algorithm;
  /// True iff the front is the certified exact latency/FP front.
  bool exact = false;
  /// Candidates evaluated by the exhaustive path (0 on the heuristic path).
  std::uint64_t evaluations = 0;
};

/// Minimize FP subject to latency <= L.
[[nodiscard]] util::Expected<SolveReport> solve_min_fp_for_latency(
    const pipeline::Pipeline& pipeline, const platform::Platform& platform, double max_latency,
    const SolveOptions& options = {});

/// Minimize latency subject to FP <= F.
[[nodiscard]] util::Expected<SolveReport> solve_min_latency_for_fp(
    const pipeline::Pipeline& pipeline, const platform::Platform& platform,
    double max_failure_probability, const SolveOptions& options = {});

/// The full latency/FP Pareto front under the same dispatch policy: exact
/// (exhaustive) when the candidate count fits the budget, the heuristic
/// threshold sweep otherwise. Method::Exact / Method::Exhaustive force the
/// exhaustive path (error "budget" if the space exceeds the evaluation
/// budget); Method::Heuristic forces the sweep.
[[nodiscard]] util::Expected<FrontReport> solve_pareto_front(const pipeline::Pipeline& pipeline,
                                                             const platform::Platform& platform,
                                                             const SolveOptions& options = {});

}  // namespace relap::algorithms
