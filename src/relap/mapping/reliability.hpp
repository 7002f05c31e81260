#pragma once

/// \file reliability.hpp
/// Failure-probability evaluation (paper Section 2.2).
///
/// The application executes successfully iff, for every interval, at least
/// one replica survives. Processor failures are independent, so:
///
///   FP(mapping) = 1 - prod_j ( 1 - prod_{u in alloc(j)} fp_u ).
///
/// For heavily replicated mappings, prod fp_u underflows harmlessly to 0.
/// FP is formed in the linear domain, term for term as the lane kernel
/// (mapping_lanes.hpp) transcribes it, so both round alike: an FP below
/// about 1e-16 rounds to 0.

#include <vector>

#include "relap/mapping/interval_mapping.hpp"
#include "relap/platform/platform.hpp"

namespace relap::mapping {

/// Probability that *all* processors of `group` fail: prod fp_u.
[[nodiscard]] double group_failure_probability(const platform::Platform& platform,
                                               const std::vector<platform::ProcessorId>& group);

/// Global failure probability FP of an interval mapping, in [0, 1].
[[nodiscard]] double failure_probability(const platform::Platform& platform,
                                         const IntervalMapping& mapping);

}  // namespace relap::mapping
