#include "relap/mapping/reliability.hpp"

#include "relap/util/assert.hpp"

namespace relap::mapping {

double group_failure_probability(const platform::Platform& platform,
                                 const std::vector<platform::ProcessorId>& group) {
  RELAP_ASSERT(!group.empty(), "replica group must be non-empty");
  double product = 1.0;
  for (const platform::ProcessorId u : group) product *= platform.failure_prob(u);
  return product;
}

double failure_probability(const platform::Platform& platform, const IntervalMapping& mapping) {
  double survival = 1.0;
  for (const IntervalAssignment& a : mapping.intervals()) {
    survival *= 1.0 - group_failure_probability(platform, a.processors);
  }
  return 1.0 - survival;
}

}  // namespace relap::mapping
