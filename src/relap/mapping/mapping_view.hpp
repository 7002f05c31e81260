#pragma once

/// \file mapping_view.hpp
/// Non-owning mapping descriptions shared by the candidate evaluators.
///
/// The exact solvers evaluate exponentially many candidate mappings; building
/// an owning `IntervalMapping` (a vector of vectors) per candidate dominates
/// their runtime. The lane kernel (mapping_lanes.hpp, `LaneEvalBatch<W>`)
/// stages candidates into its own preallocated buffers and hands each one
/// back through these types:
///
///  * `MappingView` — a non-owning SoA description of an interval mapping:
///    one flat processor array, group offsets, and stage offsets.
///  * `CompositionCache` — the latency terms that depend only on the *stage
///    partition* (work sums, boundary data sizes), computed once per
///    composition and reused across every replica-group assignment of that
///    composition. On an (n=6, m=7) instance one composition is shared by
///    tens of thousands of groupings.
///  * `ViewEval` — the two objectives the lane kernel computes.
///  * `period_view` — the period filter of the tri-criteria solvers,
///    bit-identical to `period()` on the equivalent `IntervalMapping`.
///  * `materialize` — the owning mapping a view describes, built only for
///    the rare candidates that enter a front or displace an incumbent.

#include <cstddef>
#include <span>
#include <vector>

#include "relap/mapping/interval_mapping.hpp"
#include "relap/platform/platform.hpp"

namespace relap::mapping {

/// Non-owning structure-of-arrays form of an interval mapping with p
/// intervals over n stages and a flat, per-group-sorted processor array.
struct MappingView {
  /// p+1 entries; interval j covers stages [stage_offsets[j], stage_offsets[j+1]).
  std::span<const std::size_t> stage_offsets;
  /// All enrolled processors, grouped by interval, ascending within a group.
  std::span<const platform::ProcessorId> processors;
  /// p+1 entries; group j is processors[group_offsets[j] .. group_offsets[j+1]).
  std::span<const std::size_t> group_offsets;

  [[nodiscard]] std::size_t interval_count() const { return stage_offsets.size() - 1; }
  [[nodiscard]] std::size_t stage_count() const { return stage_offsets.back(); }
  [[nodiscard]] std::size_t first_stage(std::size_t j) const { return stage_offsets[j]; }
  [[nodiscard]] std::size_t last_stage(std::size_t j) const { return stage_offsets[j + 1] - 1; }
  [[nodiscard]] std::span<const platform::ProcessorId> group(std::size_t j) const {
    return processors.subspan(group_offsets[j], group_offsets[j + 1] - group_offsets[j]);
  }
  [[nodiscard]] std::size_t processors_used() const { return processors.size(); }
};

/// Latency/period terms that depend only on the composition (stage
/// partition), not on the replica groups: hoisted out of the per-grouping
/// inner loop. The cached doubles are exactly the values the scalar
/// evaluators would read (`Pipeline::data` lookups and `Pipeline::work_sum`
/// results), so reusing them cannot perturb a single bit.
struct CompositionCache {
  std::vector<double> work;        ///< work_sum over interval j
  std::vector<double> data_first;  ///< delta_{d_j}: data into interval j
  std::vector<double> out_size;    ///< delta_{e_j + 1}: data out of interval j
  double data_out = 0.0;           ///< delta_n: final output size
};

/// Both objectives of one candidate (`LaneEvalBatch::evaluate`); the period,
/// when a solver needs it, is computed separately via `period_view`.
struct ViewEval {
  double latency = 0.0;
  double failure_probability = 0.0;
};

/// Period of the viewed mapping, bit-identical to
/// `period(pipeline, platform, mapping)` on the materialized equivalent.
[[nodiscard]] double period_view(const platform::Platform& platform, const MappingView& view,
                                 const CompositionCache& cache);

/// Builds the owning `IntervalMapping` the view describes. The only
/// allocating step of the kernel — called for the rare candidates that enter
/// a front or displace an incumbent.
[[nodiscard]] IntervalMapping materialize(const MappingView& view);

}  // namespace relap::mapping
