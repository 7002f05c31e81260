#pragma once

/// \file mapping_lanes.hpp
/// Lane-batched candidate evaluation: the one evaluator every enumerator
/// and the beam's final scoring run on.
///
/// `LaneEvalBatch<W>` evaluates up to `W` interval mappings at once, one per
/// SIMD lane, on top of preallocated lane-major SoA staging buffers (group
/// sums, replica ids, boundary-transfer terms). The scalar evaluators
/// `latency()` (Eq. (1)/(2), mapping/latency.hpp) and
/// `failure_probability()` (mapping/reliability.hpp) are the bit-exactness
/// oracle: every lane applies the exact per-candidate operation sequence of
/// the scalar code — the same `KahanSum` adds in the same order, compensated
/// summation kept per lane and never interleaved across lanes — so lane l's
/// `ViewEval` is bit-identical to the scalar evaluators on
/// `materialize(view(l))`, for every `W` and every ISA (see util/simd.hpp
/// for the contract). Lanes whose structure is shorter than the widest lane
/// in the batch are masked: rejected lanes' accumulators (Kahan sum *and*
/// compensation) pass through `select` untouched, garbage values computed
/// under a false mask are discarded, and stale staging ids stay in bounds
/// so gathers never fault.
///
/// Two staging modes:
///  * enumeration: `set_composition` once per composition, then
///    `push_grouping` per candidate — the composition columns are copied
///    into the pushed lane, so one batch may span a composition wrap;
///  * heuristics: `push_intervals` per candidate with explicit interval
///    assignments (per-lane compositions, per-lane interval counts).
///
/// After warm-up no method allocates (counting-allocator pinned); a batch
/// is reused clear/push/evaluate for the whole enumeration chunk.
///
/// Typical driver loop:
///
///   LaneEvalBatch<W> batch(n, m);
///   batch.set_composition(pipeline, lengths);       // once per composition
///   for (each candidate) {
///     batch.push_grouping(group_of, group_sizes);
///     if (batch.full()) {
///       batch.evaluate(platform, evals);
///       for (l < batch.size()) consume(batch.view(l), batch.cache(l), evals[l]);
///       batch.clear();
///     }
///   }
///   // final partial batch: same evaluate/consume/clear

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "relap/mapping/interval_mapping.hpp"
#include "relap/mapping/mapping_view.hpp"
#include "relap/pipeline/pipeline.hpp"
#include "relap/platform/platform.hpp"
#include "relap/util/simd.hpp"

namespace relap::mapping {

template <std::size_t W>
class LaneEvalBatch {
 public:
  /// Reserves every staging buffer for pipelines up to `stage_count` stages
  /// on platforms up to `processor_count` processors.
  LaneEvalBatch(std::size_t stage_count, std::size_t processor_count);

  /// Installs the shared composition for subsequent `push_grouping` calls
  /// (the enumeration drivers' once-per-composition step). Does not touch
  /// lanes already pushed — each lane pins the composition slot it was
  /// staged under, and the slot ring holds every composition a batch spans.
  void set_composition(const pipeline::Pipeline& pipeline, std::span<const std::size_t> lengths);

  /// Stages one candidate of the current shared composition into the next
  /// free lane, from an enumeration word: `group_of[u]` is the group of
  /// processor u (or the group count for unused), `group_sizes` the
  /// per-group occupancy. Precondition: `!full()` and `set_composition`
  /// was called with a matching group count.
  void push_grouping(std::span<const std::size_t> group_of,
                     std::span<const std::size_t> group_sizes);

  /// Stages one candidate from explicit interval assignments (the
  /// heuristics' representation).
  /// Precondition: `!full()`; groups sorted ascending (canonical form).
  void push_intervals(const pipeline::Pipeline& pipeline,
                      std::span<const IntervalAssignment> intervals);

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool full() const { return size_ == W; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Forgets all staged lanes (stale staging data remains, harmlessly).
  void clear();

  /// Evaluates all staged lanes; writes `out[l]` for l in [0, size()).
  /// Each result is bit-identical to `latency()`/`failure_probability()` on
  /// `materialize(view(l))`.
  void evaluate(const platform::Platform& platform, std::span<ViewEval> out) const;

  /// Canonical per-lane view (for `materialize`, `period_view`,
  /// `processors_used`). Valid until the lane is overwritten after `clear`.
  [[nodiscard]] MappingView view(std::size_t lane) const;

  /// Per-lane composition cache (for `period_view`).
  [[nodiscard]] const CompositionCache& cache(std::size_t lane) const {
    const std::size_t s = slot_of_lane_[lane];
    return s == kNoSlot ? cache_[lane] : slots_[s].cache;
  }

 private:
  /// One installed composition: the derived per-interval columns plus the
  /// stage offsets that `view`/`cache` hand back. `push_grouping` pins the
  /// active slot instead of copying it into the lane; a ring of W + 1 slots
  /// is enough because a batch of W lanes can span at most W distinct
  /// compositions plus the currently installed one.
  struct CompositionSlot {
    CompositionCache cache;
    std::vector<std::size_t> stage_offsets;  // p + 1 entries
    std::size_t p = 0;
  };
  static constexpr std::size_t kNoSlot = W + 1;  ///< lane staged via push_intervals

  void stage_lane_columns(std::size_t lane, std::size_t p);

  std::size_t mcap_;  ///< max processors
  std::size_t pcap_;  ///< max interval count = min(stage, processor caps)
  std::size_t size_ = 0;
  std::size_t pmax_ = 0;  ///< widest staged lane's interval count

  // Composition slot ring (enumeration mode); see CompositionSlot.
  std::array<CompositionSlot, W + 1> slots_;
  std::size_t active_slot_ = 0;
  std::array<std::size_t, W + 1> slot_refs_{};  ///< lanes pinning each slot
  std::array<std::size_t, W> slot_of_lane_{};

  // Canonical per-lane rows backing `view(lane)` / `cache(lane)`
  // (grouping-mode lanes read their composition from the pinned slot and
  // only stage_offsets_l_ is interval-mode-specific).
  std::array<CompositionCache, W> cache_;
  std::vector<std::size_t> stage_offsets_l_;       // W rows of pcap_+1
  std::vector<std::size_t> group_offsets_l_;       // W rows of pcap_+1
  std::vector<platform::ProcessorId> processors_l_;  // W rows of mcap_
  std::vector<std::size_t> cursor_;                // pcap_ scratch (counting sort)

  // Lane-major staging for the vector kernels; column (j) or (j, r) holds W
  // contiguous lanes. Entries beyond a lane's structure are stale garbage —
  // finite doubles and in-bounds ids — masked out during evaluation.
  // The composition columns (work_/dfirst_/dout_/dlast_) are evaluate-time
  // scratch: a single-slot batch broadcasts straight from the slot instead,
  // and a mixed batch fills them from each lane's pinned composition.
  std::array<std::uint64_t, W> p_u_;   ///< interval count per lane
  mutable std::array<double, W> dlast_;  ///< delta_n per lane
  mutable std::vector<double> work_;     // pcap_ * W
  mutable std::vector<double> dfirst_;   // pcap_ * W
  mutable std::vector<double> dout_;     // pcap_ * W
  std::vector<std::uint64_t> ksize_u_; // pcap_ * W (zeroed beyond a lane's p)
  std::vector<std::uint64_t> proc_;    // pcap_ * mcap_ * W, (j*mcap_+r)*W + l
  std::vector<std::size_t> kmax_j_;    // pcap_: widest group at j this batch

  // Evaluate-time scratch: receiver-side ids and raggedness masks of the
  // next interval, hoisted out of the sender loop (mcap_ entries each).
  mutable std::vector<util::simd::UintLanes<W>> v_ids_;
  mutable std::vector<util::simd::UintLanes<W>> v_mask_;
};

}  // namespace relap::mapping
