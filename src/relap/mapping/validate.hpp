#pragma once

/// \file validate.hpp
/// Instance-compatibility validation for mappings.
///
/// Structural invariants (consecutive intervals, disjoint non-empty groups)
/// belong to the mapping types themselves (`IntervalMapping::make` is their
/// checked form). This module checks the conditions that tie a mapping to a
/// concrete instance — stage counts matching, processor ids in range,
/// one-to-one feasibility — and reports failures as "mismatch" errors,
/// because mappings read from files, snapshots or journals are untrusted
/// input. The count form serves readers that know an instance only by its
/// stage and processor counts, such as a cache key (io::read_instance_key_counts).

#include "relap/mapping/general_mapping.hpp"
#include "relap/mapping/interval_mapping.hpp"
#include "relap/pipeline/pipeline.hpp"
#include "relap/platform/platform.hpp"
#include "relap/util/expected.hpp"

namespace relap::mapping {

/// Marker for successful validation.
struct Valid {};

/// Checks that `mapping` covers exactly `stage_count` stages and only names
/// processors below `processor_count`.
[[nodiscard]] util::Expected<Valid> validate(std::size_t stage_count, std::size_t processor_count,
                                             const IntervalMapping& mapping);

/// `validate(pipeline.stage_count(), platform.processor_count(), mapping)`.
[[nodiscard]] util::Expected<Valid> validate(const pipeline::Pipeline& pipeline,
                                             const platform::Platform& platform,
                                             const IntervalMapping& mapping);

/// Same for general mappings.
[[nodiscard]] util::Expected<Valid> validate(const pipeline::Pipeline& pipeline,
                                             const platform::Platform& platform,
                                             const GeneralMapping& mapping);

/// `validate` plus the one-to-one restriction of Theorem 3: all stages on
/// pairwise distinct processors (requires n <= m).
[[nodiscard]] util::Expected<Valid> validate_one_to_one(const pipeline::Pipeline& pipeline,
                                                        const platform::Platform& platform,
                                                        const GeneralMapping& mapping);

}  // namespace relap::mapping
