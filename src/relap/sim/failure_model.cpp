#include "relap/sim/failure_model.hpp"

#include <limits>
#include <span>

#include "relap/util/assert.hpp"

namespace relap::sim {

namespace {
constexpr double kNever = std::numeric_limits<double>::infinity();
}

FailureScenario FailureScenario::none(std::size_t processor_count) {
  return FailureScenario{std::vector<double>(processor_count, kNever),
                         std::vector<bool>(processor_count, false)};
}

FailureScenario FailureScenario::draw(const platform::Platform& platform, double horizon,
                                      util::Rng& rng) {
  FailureScenario scenario;
  draw_into(scenario, platform, horizon, rng);
  return scenario;
}

void FailureScenario::draw_into(FailureScenario& scenario, const platform::Platform& platform,
                                double horizon, util::Rng& rng) {
  RELAP_ASSERT(horizon > 0.0, "failure horizon must be positive");
  const std::size_t m = platform.processor_count();
  const std::span<const double> fp = platform.failure_probs();  // same values as failure_prob(u)
  scenario.failure_time.assign(m, kNever);
  scenario.fail_after_first_receive.assign(m, false);
  for (platform::ProcessorId u = 0; u < m; ++u) {
    if (rng.bernoulli(fp[u])) {
      scenario.failure_time[u] = rng.uniform(0.0, horizon);
    }
  }
}

void FailureScenario::draw_indexed(FailureScenario& scenario, const platform::Platform& platform,
                                   double horizon, std::uint64_t seed, std::uint64_t trial_index) {
  RELAP_ASSERT(horizon > 0.0, "failure horizon must be positive");
  const std::size_t m = platform.processor_count();
  const std::span<const double> fp = platform.failure_probs();
  scenario.failure_time.assign(m, kNever);
  scenario.fail_after_first_receive.assign(m, false);
  const std::uint64_t base = trial_index * 2 * static_cast<std::uint64_t>(m);
  for (platform::ProcessorId u = 0; u < m; ++u) {
    const std::uint64_t c = base + 2 * static_cast<std::uint64_t>(u);
    // `unit < fp[u]` reproduces Rng::bernoulli exactly for fp in [0, 1]:
    // unit lies in [0, 1), so fp == 0 can never fire and fp == 1 always does.
    if (util::to_unit_double(util::counter_hash(seed, c)) < fp[u]) {
      // uniform(0, horizon) == horizon * unit, drawn at the adjacent counter.
      scenario.failure_time[u] = horizon * util::to_unit_double(util::counter_hash(seed, c + 1));
    }
  }
}

platform::ProcessorId worst_case_survivor(const pipeline::Pipeline& pipeline,
                                          const platform::Platform& platform,
                                          const mapping::IntervalAssignment& interval,
                                          const std::vector<platform::ProcessorId>* next_group) {
  const double work = pipeline.work_sum(interval.stages.first, interval.stages.last);
  const double out_size = pipeline.data(interval.stages.last + 1);
  platform::ProcessorId worst = interval.processors.front();
  double worst_term = -1.0;
  for (const platform::ProcessorId u : interval.processors) {
    double term = work / platform.speed(u);
    if (next_group != nullptr) {
      for (const platform::ProcessorId v : *next_group) {
        term += out_size / platform.bandwidth(u, v);
      }
    } else {
      term += out_size / platform.bandwidth_out(u);
    }
    if (term > worst_term) {
      worst_term = term;
      worst = u;
    }
  }
  return worst;
}

FailureScenario FailureScenario::worst_case(const pipeline::Pipeline& pipeline,
                                            const platform::Platform& platform,
                                            const mapping::IntervalMapping& mapping) {
  FailureScenario scenario = none(platform.processor_count());
  const std::size_t p = mapping.interval_count();
  for (std::size_t j = 0; j < p; ++j) {
    const mapping::IntervalAssignment& a = mapping.interval(j);
    const std::vector<platform::ProcessorId>* next =
        (j + 1 < p) ? &mapping.interval(j + 1).processors : nullptr;
    const platform::ProcessorId survivor = worst_case_survivor(pipeline, platform, a, next);
    for (const platform::ProcessorId u : a.processors) {
      if (u != survivor) scenario.fail_after_first_receive[u] = true;
    }
  }
  return scenario;
}

}  // namespace relap::sim
