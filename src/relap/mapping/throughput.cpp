#include "relap/mapping/throughput.hpp"

#include <algorithm>

#include "relap/util/assert.hpp"

namespace relap::mapping {

double period(const pipeline::Pipeline& pipeline, const platform::Platform& platform,
              const IntervalMapping& mapping) {
  RELAP_ASSERT(mapping.stage_count() == pipeline.stage_count(),
               "mapping does not cover the pipeline");
  const std::size_t p = mapping.interval_count();

  // P_in: k_1 serialized sends of delta_0 per data set.
  double worst = 0.0;
  {
    double in_cycle = 0.0;
    for (const platform::ProcessorId u : mapping.interval(0).processors) {
      in_cycle += pipeline.data(0) / platform.bandwidth_in(u);
    }
    worst = in_cycle;
  }

  for (std::size_t j = 0; j < p; ++j) {
    const IntervalAssignment& a = mapping.interval(j);
    const double work = pipeline.work_sum(a.stages.first, a.stages.last);
    const double in_size = pipeline.data(a.stages.first);
    const double out_size = pipeline.data(a.stages.last + 1);
    for (const platform::ProcessorId u : a.processors) {
      // Receive one copy (from the previous interval's sender, or P_in).
      double cycle = work / platform.speed(u);
      if (j == 0) {
        cycle += in_size / platform.bandwidth_in(u);
      } else {
        // In the failure-free steady state the previous sender is unknown in
        // advance; take the worst link into u, matching the latency model's
        // adversarial stance.
        double slowest = platform.bandwidth(mapping.interval(j - 1).processors.front(), u);
        for (const platform::ProcessorId w : mapping.interval(j - 1).processors) {
          if (w != u) slowest = std::min(slowest, platform.bandwidth(w, u));
        }
        cycle += in_size / slowest;
      }
      // Acting as designated sender: k_{j+1} serialized copies out.
      if (j + 1 < p) {
        for (const platform::ProcessorId v : mapping.interval(j + 1).processors) {
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

}  // namespace relap::mapping
