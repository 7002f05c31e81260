#include "relap/algorithms/pareto_driver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "relap/algorithms/heuristics.hpp"
#include "relap/algorithms/mono_criterion.hpp"
#include "relap/exec/parallel.hpp"
#include "relap/mapping/latency.hpp"
#include "relap/util/assert.hpp"
#include "relap/util/pareto.hpp"

namespace relap::algorithms {

namespace {

void insert_solution(util::ParetoFront& front, std::vector<ParetoSolution>& pool, Solution s) {
  if (front.insert({s.latency, s.failure_probability, pool.size()})) {
    pool.push_back(ParetoSolution{s.latency, s.failure_probability, std::move(s.mapping)});
  }
}

std::vector<ParetoSolution> finalize(const util::ParetoFront& front,
                                     std::vector<ParetoSolution>& pool) {
  std::vector<ParetoSolution> out;
  out.reserve(front.size());
  for (const util::ParetoPoint& point : front.points()) {
    out.push_back(std::move(pool[point.payload]));
  }
  return out;
}

}  // namespace

std::vector<ParetoSolution> sweep_latency_thresholds(const pipeline::Pipeline& pipeline,
                                                     const platform::Platform& platform,
                                                     const MinFpSolver& solver,
                                                     const ParetoDriverOptions& options) {
  RELAP_ASSERT(options.thresholds >= 2, "need at least two sweep thresholds");
  // Sweep bounds: the instance's latency floor, and the latency of the
  // maximally replicated mapping (Theorem 1's FP optimum) as a ceiling that
  // every mapping of interest stays under.
  const double lo = std::max(mapping::latency_lower_bound(pipeline, platform), 1e-9);
  const Solution most_reliable = minimize_failure_probability(pipeline, platform);
  const double hi = std::max(most_reliable.latency, lo * (1.0 + 1e-6));

  // Solve every threshold concurrently (the expensive part), then merge the
  // candidates into the front serially in threshold order so the resulting
  // front does not depend on the thread count.
  const double ratio = hi / lo;
  std::vector<std::optional<Result>> results(options.thresholds);
  exec::parallel_for(
      options.thresholds, 1,
      [&](std::size_t i) {
        if (util::cancel_requested(options.cancel)) return;  // skip late thresholds
        const double t = static_cast<double>(i) / static_cast<double>(options.thresholds - 1);
        const double threshold = lo * std::pow(ratio, t);
        results[i].emplace(solver(threshold));
      },
      options.pool);

  util::ParetoFront front;
  std::vector<ParetoSolution> pool;
  insert_solution(front, pool, most_reliable);
  for (std::optional<Result>& r : results) {
    if (r.has_value() && r->has_value()) insert_solution(front, pool, std::move(*r).take());
  }
  return finalize(front, pool);
}

std::vector<ParetoSolution> heuristic_pareto_front(const pipeline::Pipeline& pipeline,
                                                   const platform::Platform& platform,
                                                   const ParetoDriverOptions& options) {
  return sweep_latency_thresholds(
      pipeline, platform,
      [&](double max_latency) {
        return heuristic_min_fp_for_latency(pipeline, platform, max_latency,
                                            HeuristicOptions{options.cancel});
      },
      options);
}

double front_fp_ratio(const std::vector<ParetoSolution>& achieved,
                      const std::vector<ParetoSolution>& reference, double miss_penalty) {
  RELAP_ASSERT(!reference.empty(), "reference front must be non-empty");
  double total = 0.0;
  for (const ParetoSolution& ref : reference) {
    // Best achieved FP within the reference point's latency budget.
    double best = std::numeric_limits<double>::infinity();
    for (const ParetoSolution& got : achieved) {
      if (got.latency <= ref.latency * (1.0 + 1e-9)) {
        best = std::min(best, got.failure_probability);
      }
    }
    if (!std::isfinite(best)) {
      total += miss_penalty;
    } else if (ref.failure_probability <= 0.0) {
      total += (best <= 0.0) ? 1.0 : miss_penalty;
    } else {
      total += std::max(1.0, best / ref.failure_probability);
    }
  }
  return total / static_cast<double>(reference.size());
}

}  // namespace relap::algorithms
