#include "relap/mapping/mapping_view.hpp"

#include <algorithm>

namespace relap::mapping {

double period_view(const platform::Platform& platform, const MappingView& view,
                   const CompositionCache& cache) {
  const std::size_t p = view.interval_count();

  // P_in: k_1 serialized sends of delta_0 per data set.
  double worst = 0.0;
  {
    double in_cycle = 0.0;
    for (const platform::ProcessorId u : view.group(0)) {
      in_cycle += cache.data_first[0] / platform.bandwidth_in(u);
    }
    worst = in_cycle;
  }

  for (std::size_t j = 0; j < p; ++j) {
    const double work = cache.work[j];
    const double in_size = cache.data_first[j];
    const double out_size = cache.out_size[j];
    for (const platform::ProcessorId u : view.group(j)) {
      // Receive one copy (from the previous interval's sender, or P_in).
      double cycle = work / platform.speed(u);
      if (j == 0) {
        cycle += in_size / platform.bandwidth_in(u);
      } else {
        // In the failure-free steady state the previous sender is unknown in
        // advance; take the worst link into u, matching the latency model's
        // adversarial stance.
        const std::span<const platform::ProcessorId> prev = view.group(j - 1);
        double slowest = platform.bandwidth(prev.front(), u);
        for (const platform::ProcessorId w : prev) {
          if (w != u) slowest = std::min(slowest, platform.bandwidth(w, u));
        }
        cycle += in_size / slowest;
      }
      // Acting as designated sender: k_{j+1} serialized copies out.
      if (j + 1 < p) {
        for (const platform::ProcessorId v : view.group(j + 1)) {
          cycle += out_size / platform.bandwidth(u, v);
        }
      } else {
        cycle += out_size / platform.bandwidth_out(u);
      }
      worst = std::max(worst, cycle);
    }
  }
  return worst;
}

IntervalMapping materialize(const MappingView& view) {
  std::vector<IntervalAssignment> intervals;
  const std::size_t p = view.interval_count();
  intervals.reserve(p);
  for (std::size_t j = 0; j < p; ++j) {
    const std::span<const platform::ProcessorId> group = view.group(j);
    intervals.push_back(IntervalAssignment{
        Interval{view.first_stage(j), view.last_stage(j)},
        std::vector<platform::ProcessorId>(group.begin(), group.end())});
  }
  return IntervalMapping(std::move(intervals));
}

}  // namespace relap::mapping
