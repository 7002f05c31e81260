#include "relap/algorithms/solve.hpp"

#include "relap/algorithms/comm_hom.hpp"
#include "relap/algorithms/fully_hom.hpp"
#include "relap/algorithms/pareto_driver.hpp"
#include "relap/util/assert.hpp"

namespace relap::algorithms {

namespace {

/// True iff a polynomial exact algorithm covers this platform class.
bool has_exact_polynomial(const platform::Platform& platform) {
  if (platform.is_fully_homogeneous()) return true;  // Algorithms 1/2 (any failures)
  return platform.has_homogeneous_links() && platform.is_failure_homogeneous();  // 3/4
}

util::Expected<SolveReport> wrap(Result r, std::string algorithm, bool exact) {
  if (!r) return r.error();
  return SolveReport{std::move(r).take(), std::move(algorithm), exact};
}

/// Shared dispatch skeleton for both optimization directions.
template <typename PolyFn, typename ExhaustiveFn, typename HeuristicFn>
util::Expected<SolveReport> dispatch(const pipeline::Pipeline& pipeline,
                                     const platform::Platform& platform,
                                     const SolveOptions& options, PolyFn&& poly,
                                     ExhaustiveFn&& exhaustive, HeuristicFn&& heuristic) {
  const bool poly_exact = has_exact_polynomial(platform);
  switch (options.method) {
    case Method::Exact:
      if (poly_exact) return poly();
      return exhaustive();
    case Method::Exhaustive: return exhaustive();
    case Method::Heuristic: return heuristic();
    case Method::Auto: {
      if (poly_exact) return poly();
      const std::uint64_t candidates =
          interval_mapping_count(pipeline.stage_count(), platform.processor_count());
      if (candidates <= options.auto_exhaustive_budget) return exhaustive();
      return heuristic();
    }
  }
  RELAP_UNREACHABLE("invalid Method");
}

}  // namespace

util::Expected<SolveReport> solve_min_fp_for_latency(const pipeline::Pipeline& pipeline,
                                                     const platform::Platform& platform,
                                                     double max_latency,
                                                     const SolveOptions& options) {
  const auto poly = [&] {
    if (platform.is_fully_homogeneous()) {
      return wrap(fully_hom_min_fp_for_latency(pipeline, platform, max_latency),
                  "algorithm-1 (fully homogeneous)", true);
    }
    return wrap(comm_hom_min_fp_for_latency(pipeline, platform, max_latency),
                "algorithm-3 (comm homogeneous, failure homogeneous)", true);
  };
  const auto exhaustive = [&] {
    return wrap(exhaustive_min_fp_for_latency(pipeline, platform, max_latency, options.exhaustive),
                "exhaustive", true);
  };
  const auto heuristic = [&] {
    return wrap(heuristic_min_fp_for_latency(pipeline, platform, max_latency,
                                             HeuristicOptions{options.exhaustive.cancel}),
                "heuristic suite + local search", false);
  };
  return dispatch(pipeline, platform, options, poly, exhaustive, heuristic);
}

util::Expected<SolveReport> solve_min_latency_for_fp(const pipeline::Pipeline& pipeline,
                                                     const platform::Platform& platform,
                                                     double max_failure_probability,
                                                     const SolveOptions& options) {
  const auto poly = [&] {
    if (platform.is_fully_homogeneous()) {
      return wrap(fully_hom_min_latency_for_fp(pipeline, platform, max_failure_probability),
                  "algorithm-2 (fully homogeneous)", true);
    }
    return wrap(comm_hom_min_latency_for_fp(pipeline, platform, max_failure_probability),
                "algorithm-4 (comm homogeneous, failure homogeneous)", true);
  };
  const auto exhaustive = [&] {
    return wrap(exhaustive_min_latency_for_fp(pipeline, platform, max_failure_probability,
                                              options.exhaustive),
                "exhaustive", true);
  };
  const auto heuristic = [&] {
    return wrap(
        heuristic_min_latency_for_fp(pipeline, platform, max_failure_probability,
                                     HeuristicOptions{options.exhaustive.cancel}),
        "heuristic suite + local search", false);
  };
  return dispatch(pipeline, platform, options, poly, exhaustive, heuristic);
}

util::Expected<FrontReport> solve_pareto_front(const pipeline::Pipeline& pipeline,
                                               const platform::Platform& platform,
                                               const SolveOptions& options) {
  const auto exhaustive = [&]() -> util::Expected<FrontReport> {
    auto outcome = exhaustive_pareto(pipeline, platform, options.exhaustive);
    if (!outcome) return outcome.error();
    return FrontReport{std::move(outcome.value().front), "exhaustive pareto", true,
                       outcome.value().evaluations};
  };
  const auto heuristic = [&]() -> util::Expected<FrontReport> {
    ParetoDriverOptions driver;
    driver.thresholds = options.pareto_thresholds;
    driver.pool = options.exhaustive.pool;
    driver.cancel = options.exhaustive.cancel;
    // The sweep's per-threshold solver is the heuristic suite, so the front
    // inherits its determinism contract (bit-identical at any thread count).
    std::vector<ParetoSolution> front = heuristic_pareto_front(pipeline, platform, driver);
    // A cancelled sweep is partial: report the cancellation, not the front.
    if (util::cancel_requested(options.exhaustive.cancel)) {
      return util::make_error("cancelled", "pareto sweep was cancelled before completing");
    }
    return FrontReport{std::move(front), "heuristic front sweep", false, 0};
  };
  switch (options.method) {
    case Method::Exact:
    case Method::Exhaustive: return exhaustive();
    case Method::Heuristic: return heuristic();
    case Method::Auto: {
      const std::uint64_t candidates =
          interval_mapping_count(pipeline.stage_count(), platform.processor_count());
      if (candidates <= options.auto_exhaustive_budget) return exhaustive();
      return heuristic();
    }
  }
  RELAP_UNREACHABLE("invalid Method");
}

}  // namespace relap::algorithms
