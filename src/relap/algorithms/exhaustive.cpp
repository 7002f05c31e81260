#include "relap/algorithms/exhaustive.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <optional>
#include <utility>

#include "relap/exec/parallel.hpp"
#include "relap/mapping/latency.hpp"
#include "relap/mapping/mapping_lanes.hpp"
#include "relap/mapping/mapping_view.hpp"
#include "relap/mapping/throughput.hpp"
#include "relap/util/enumeration.hpp"
#include "relap/util/pareto.hpp"
#include "relap/util/simd.hpp"
#include "relap/util/strings.hpp"

namespace relap::algorithms {

namespace {

using util::kSaturated;

/// Candidates per parallel chunk. Fixed (never derived from the thread
/// count) so the chunk grid — and therefore the merge order and the result —
/// is identical at any thread count.
constexpr std::size_t kCandidatesPerChunk = 1024;

/// One interval count's slice of the flat candidate index space:
/// C(n-1, p-1) compositions x count_groupings(m, p) groupings, candidates
/// ordered composition-major within the slice.
struct PBlock {
  std::uint64_t start;  ///< flat index of the block's first candidate
  util::CompositionIndexer compositions;
  util::GroupingIndexer groupings;
};

/// The flat candidate index space [0, total): p-blocks in increasing p.
/// Rank/unrank over this space lets the parallel driver cut uniform chunks
/// of candidates regardless of how candidates distribute over compositions —
/// the load-balance fix for instances with few compositions.
///
/// `total` is computed with saturating arithmetic and is the single source
/// of truth for the budget decision: a saturated total means the block
/// offsets are meaningless, so callers must reject it before enumerating.
/// Equals the evaluation count the pre-parallel streaming enumerator charged
/// against its budget, so the budget decision is unchanged.
struct CandidateSpace {
  std::vector<PBlock> blocks;
  std::uint64_t total = 0;
};

CandidateSpace build_candidate_space(std::size_t n, std::size_t m, std::size_t max_parts) {
  CandidateSpace space;
  std::uint64_t start = 0;
  for (std::size_t p = 1; p <= max_parts; ++p) {
    util::CompositionIndexer compositions(n, p);
    util::GroupingIndexer groupings(m, p);
    const std::uint64_t count = util::sat_mul(compositions.count(), groupings.count());
    if (count == 0) continue;
    space.blocks.push_back(PBlock{start, std::move(compositions), std::move(groupings)});
    start = util::sat_add(start, count);
  }
  space.total = start;
  return space;
}

/// Walks candidates of a `CandidateSpace` in flat-index order. `seek`
/// unranks an arbitrary start; `advance` steps to the successor with the
/// amortized-O(p) lexicographic `next`, re-deriving the composition only on
/// wrap and reporting the wrap so the caller can refresh its per-composition
/// cache (`LaneEvalBatch::set_composition`).
class CandidateCursor {
 public:
  explicit CandidateCursor(const CandidateSpace& space) : space_(space) {}

  void seek(std::uint64_t flat_index) {
    block_ = 0;
    while (block_ + 1 < space_.blocks.size() && space_.blocks[block_ + 1].start <= flat_index) {
      ++block_;
    }
    const PBlock& b = space_.blocks[block_];
    const std::uint64_t local = flat_index - b.start;
    composition_rank_ = local / b.groupings.count();
    load_composition();
    group_of_.resize(b.groupings.items());
    group_sizes_.resize(b.groupings.groups());
    b.groupings.unrank(local % b.groupings.count(), group_of_, group_sizes_);
  }

  /// Steps to the next candidate; returns true iff the composition changed
  /// (so `lengths()` must be re-installed). Precondition: not at the last
  /// candidate.
  bool advance() {
    const PBlock* b = &space_.blocks[block_];
    if (b->groupings.next(group_of_, group_sizes_)) return false;
    if (++composition_rank_ == b->compositions.count()) {
      ++block_;
      b = &space_.blocks[block_];
      composition_rank_ = 0;
      group_of_.resize(b->groupings.items());
      group_sizes_.resize(b->groupings.groups());
    }
    load_composition();
    b->groupings.unrank(0, group_of_, group_sizes_);
    return true;
  }

  [[nodiscard]] std::span<const std::size_t> lengths() const { return lengths_; }
  [[nodiscard]] std::span<const std::size_t> group_sizes() const { return group_sizes_; }
  [[nodiscard]] std::span<const std::size_t> group_of() const { return group_of_; }

 private:
  void load_composition() {
    space_.blocks[block_].compositions.unrank(composition_rank_, lengths_);
  }

  const CandidateSpace& space_;
  std::size_t block_ = 0;
  std::uint64_t composition_rank_ = 0;
  std::vector<std::size_t> lengths_;
  std::vector<std::size_t> group_of_;
  std::vector<std::size_t> group_sizes_;
};

/// Lane width of every enumerator's batched kernel.
constexpr std::size_t kLanes = util::simd::kDefaultLaneWidth;

/// Enumerates every interval mapping within the options' structural caps
/// through the zero-allocation evaluation kernel, in parallel on the
/// options' pool.
///
/// The flat (composition x grouping) index space is cut into fixed
/// `kCandidatesPerChunk`-sized chunks; each chunk seeks its start by
/// rank/unrank, walks candidates with the lexicographic successor, stages
/// admitted candidates into a `kLanes`-lane `LaneEvalBatch`, and consumes
/// each flushed batch in push (= candidate index) order into a per-chunk
/// accumulator; accumulators merge serially in chunk-index order. Results
/// are therefore those of a serial scalar walk in flat-index order, at any
/// thread count, and chunks are uniform in candidate count even when one
/// composition dominates the space.
///
/// `visit(acc, view, cache, eval, idx)` sees each admitted candidate's
/// objectives plus its view/cache (for `period_view`, `materialize`,
/// `processors_used`) and its flat candidate index, which identifies the
/// candidate across the whole space — visitors that only need the mapping of
/// a few winners can carry the index and re-derive the view later instead of
/// materializing in the hot loop. The view must not be retained past the
/// call.
///
/// Returns false iff the candidate count exceeds the evaluation budget (in
/// which case nothing is evaluated).
template <typename Acc, typename Visit, typename Merge>
bool parallel_interval_enumeration(const pipeline::Pipeline& pipeline,
                                   const platform::Platform& platform,
                                   const ExhaustiveOptions& options, Acc& out, const Visit& visit,
                                   const Merge& merge) {
  const std::size_t n = pipeline.stage_count();
  const std::size_t m = platform.processor_count();
  const std::size_t max_parts = std::min({n, m, options.max_intervals});
  const CandidateSpace space = build_candidate_space(n, m, max_parts);
  // A saturated total is over budget by definition: even max_evaluations ==
  // UINT64_MAX cannot admit it, and its block offsets are meaningless.
  if (space.total == kSaturated || space.total > options.max_evaluations) return false;
  out = exec::parallel_reduce(
      space.total, kCandidatesPerChunk, [] { return Acc(); },
      [&](Acc& local, std::size_t begin, std::size_t end, std::size_t) {
        // Cooperative cancellation, polled per chunk: a cancelled group
        // abandons its remaining chunks and the entry point discards the
        // partial accumulators behind a "cancelled" error.
        if (util::cancel_requested(options.cancel)) return;
        mapping::LaneEvalBatch<kLanes> batch(n, m);
        std::array<mapping::ViewEval, kLanes> evals;
        std::array<std::size_t, kLanes> lane_idx{};  // flat index staged per lane
        const auto flush = [&] {
          batch.evaluate(platform, evals);
          for (std::size_t l = 0; l < batch.size(); ++l) {
            visit(local, batch.view(l), batch.cache(l), evals[l], lane_idx[l]);
          }
          batch.clear();
        };
        CandidateCursor cursor(space);
        cursor.seek(begin);
        batch.set_composition(pipeline, cursor.lengths());
        for (std::size_t idx = begin;; ++idx) {
          const std::span<const std::size_t> sizes = cursor.group_sizes();
          if (std::none_of(sizes.begin(), sizes.end(),
                           [&](std::size_t s) { return s > options.max_replication; })) {
            lane_idx[batch.size()] = idx;
            batch.push_grouping(cursor.group_of(), sizes);
            if (batch.full()) flush();
          }
          if (idx + 1 == end) break;
          if (cursor.advance()) batch.set_composition(pipeline, cursor.lengths());
        }
        if (!batch.empty()) flush();
      },
      merge, options.pool);
  return true;
}

/// Accumulator for the single-best entry points: the incumbent under a
/// comparator, with its comparator-visible objectives cached so candidates
/// are compared without touching the incumbent's mapping. Merging keeps the
/// earlier (lower enumeration order) accumulator's incumbent on ties,
/// matching the serial first-wins rule.
struct BestAccumulator {
  std::optional<Solution> best;
  Objectives objectives;  ///< valid iff `best`
};

using ValueComparator = bool (*)(const Objectives&, const Objectives&, double);

/// Shared driver for the single-best entry points: enumerates all interval
/// mappings, keeps the best admitted solution under `better` with `cap`.
/// `admit(view, cache, eval)` applies the entry point's feasibility filter.
/// Returns false iff the candidate count exceeds the evaluation budget.
template <typename Admit>
bool enumerate_best(const pipeline::Pipeline& pipeline, const platform::Platform& platform,
                    const ExhaustiveOptions& options, double cap, ValueComparator better,
                    const Admit& admit, std::optional<Solution>& best) {
  BestAccumulator acc;
  const bool completed = parallel_interval_enumeration(
      pipeline, platform, options, acc,
      [&](BestAccumulator& local, const mapping::MappingView& view,
          const mapping::CompositionCache& cache, const mapping::ViewEval& eval, std::size_t) {
        if (!admit(view, cache, eval)) return;
        const Objectives candidate{eval.latency, eval.failure_probability,
                                   view.processors_used()};
        if (!local.best || better(candidate, local.objectives, cap)) {
          local.best =
              Solution{mapping::materialize(view), eval.latency, eval.failure_probability};
          local.objectives = candidate;
        }
      },
      [&](BestAccumulator& into, BestAccumulator&& from) {
        if (!from.best) return;
        if (!into.best || better(from.objectives, into.objectives, cap)) {
          into.best = std::move(from.best);
          into.objectives = from.objectives;
        }
      });
  best = std::move(acc.best);
  return completed;
}

util::Error budget_error(const ExhaustiveOptions& options) {
  return util::budget_exceeded("exhaustive enumeration exceeded " +
                               std::to_string(options.max_evaluations) + " evaluations");
}

util::Error cancelled_error() {
  return util::make_error("cancelled", "exhaustive enumeration was cancelled before completing");
}

}  // namespace

util::Expected<ParetoOutcome> exhaustive_pareto(const pipeline::Pipeline& pipeline,
                                                const platform::Platform& platform,
                                                const ExhaustiveOptions& options) {
  // Payloads are flat candidate indices, not materialized mappings: the hot
  // loop only maintains (latency, FP, index) fronts, and the few surviving
  // candidates are re-derived by the cursor and built once after the scan —
  // the same rank-instead-of-mapping trick the unreplicated enumerators use.
  struct FrontAccumulator {
    util::ParetoFront front;
    std::uint64_t evaluations = 0;
  };
  FrontAccumulator acc;
  const bool completed = parallel_interval_enumeration(
      pipeline, platform, options, acc,
      [](FrontAccumulator& local, const mapping::MappingView&, const mapping::CompositionCache&,
         const mapping::ViewEval& eval, std::size_t idx) {
        ++local.evaluations;
        local.front.insert({eval.latency, eval.failure_probability, idx});
      },
      [](FrontAccumulator& into, FrontAccumulator&& from) {
        into.evaluations += from.evaluations;
        for (const util::ParetoPoint& point : from.front.points()) into.front.insert(point);
      });
  if (!completed) return budget_error(options);
  if (util::cancel_requested(options.cancel)) return cancelled_error();

  ParetoOutcome outcome;
  outcome.evaluations = acc.evaluations;
  outcome.front.reserve(acc.front.size());
  const std::size_t n = pipeline.stage_count();
  const std::size_t m = platform.processor_count();
  const CandidateSpace space = build_candidate_space(n, m, std::min({n, m, options.max_intervals}));
  CandidateCursor cursor(space);
  for (const util::ParetoPoint& point : acc.front.points()) {
    cursor.seek(point.payload);
    std::vector<std::vector<platform::ProcessorId>> groups(cursor.lengths().size());
    for (platform::ProcessorId u = 0; u < m; ++u) {
      if (cursor.group_of()[u] < groups.size()) groups[cursor.group_of()[u]].push_back(u);
    }
    outcome.front.push_back(ParetoSolution{
        point.x, point.y,
        mapping::IntervalMapping::from_composition(cursor.lengths(), std::move(groups))});
  }
  return outcome;
}

Result exhaustive_min_fp_for_latency(const pipeline::Pipeline& pipeline,
                                     const platform::Platform& platform, double max_latency,
                                     const ExhaustiveOptions& options) {
  std::optional<Solution> best;
  const bool completed = enumerate_best(
      pipeline, platform, options, max_latency, &better_min_fp,
      [&](const mapping::MappingView&, const mapping::CompositionCache&,
          const mapping::ViewEval& eval) { return within_cap(eval.latency, max_latency); },
      best);
  if (!completed) return budget_error(options);
  if (util::cancel_requested(options.cancel)) return cancelled_error();
  if (!best) {
    return util::infeasible("no interval mapping meets latency threshold " +
                            util::format_double(max_latency));
  }
  return *std::move(best);
}

Result exhaustive_min_latency_for_fp(const pipeline::Pipeline& pipeline,
                                     const platform::Platform& platform,
                                     double max_failure_probability,
                                     const ExhaustiveOptions& options) {
  std::optional<Solution> best;
  const bool completed = enumerate_best(
      pipeline, platform, options, max_failure_probability, &better_min_latency,
      [&](const mapping::MappingView&, const mapping::CompositionCache&,
          const mapping::ViewEval& eval) {
        return within_cap(eval.failure_probability, max_failure_probability);
      },
      best);
  if (!completed) return budget_error(options);
  if (util::cancel_requested(options.cancel)) return cancelled_error();
  if (!best) {
    return util::infeasible("no interval mapping meets failure threshold " +
                            util::format_double(max_failure_probability));
  }
  return *std::move(best);
}

Result exhaustive_min_fp_for_latency_and_period(const pipeline::Pipeline& pipeline,
                                                const platform::Platform& platform,
                                                double max_latency, double max_period,
                                                const ExhaustiveOptions& options) {
  std::optional<Solution> best;
  const bool completed = enumerate_best(
      pipeline, platform, options, max_latency, &better_min_fp,
      [&](const mapping::MappingView& view, const mapping::CompositionCache& cache,
          const mapping::ViewEval& eval) {
        return within_cap(eval.latency, max_latency) &&
               within_cap(mapping::period_view(platform, view, cache), max_period);
      },
      best);
  if (!completed) return budget_error(options);
  if (util::cancel_requested(options.cancel)) return cancelled_error();
  if (!best) {
    return util::infeasible("no interval mapping meets latency threshold " +
                            util::format_double(max_latency) + " and period threshold " +
                            util::format_double(max_period));
  }
  return *std::move(best);
}

namespace {

/// Incumbent for the unreplicated enumerators: the best latency seen and the
/// flat rank of the candidate that achieved it. Ranks order merges exactly
/// like the serial first-strict-improvement rule, and carrying a rank
/// instead of a mapping keeps the hot loop allocation-free.
struct RankedBest {
  double latency = std::numeric_limits<double>::infinity();
  std::uint64_t rank = 0;
  bool has = false;
};

void merge_ranked(RankedBest& into, RankedBest&& from) {
  if (from.has && (!into.has || from.latency < into.latency)) into = from;
}

/// Lane-batched chunk scan for the unreplicated enumerators: stages up to
/// `kLanes` successive assignments lane-major into `ids`, evaluates them
/// with one `latency_assignment_lanes` call, and folds the results in rank
/// order — the same strict-improvement scan as the scalar loop, so ties
/// still go to the lowest rank. `advance()` steps the enumeration to its
/// successor; it is called exactly once per consumed candidate after the
/// first, never past the last. A final partial batch leaves the unused
/// lanes' prior (in-bounds) ids in place and ignores their outputs.
template <typename Advance>
void ranked_lane_scan(const pipeline::Pipeline& pipeline, const platform::Platform& platform,
                      RankedBest& local, std::uint64_t begin, std::uint64_t end,
                      std::span<const platform::ProcessorId> assignment,
                      std::vector<std::uint64_t>& ids, const Advance& advance) {
  const std::size_t n = assignment.size();
  std::array<double, kLanes> lat;
  std::uint64_t idx = begin;
  while (idx < end) {
    const std::size_t count =
        static_cast<std::size_t>(std::min<std::uint64_t>(kLanes, end - idx));
    for (std::size_t l = 0; l < count; ++l) {
      if (l > 0) advance();
      for (std::size_t k = 0; k < n; ++k) ids[k * kLanes + l] = assignment[k];
    }
    mapping::latency_assignment_lanes<kLanes>(pipeline, platform, ids.data(), lat.data());
    for (std::size_t l = 0; l < count; ++l) {
      if (!local.has || lat[l] < local.latency) local = RankedBest{lat[l], idx + l, true};
    }
    idx += count;
    if (idx < end) advance();
  }
}

RankedBest general_ranked_best(const pipeline::Pipeline& pipeline,
                               const platform::Platform& platform,
                               const util::AssignmentIndexer& indexer, std::uint64_t total,
                               exec::ThreadPool* pool) {
  const std::size_t n = pipeline.stage_count();
  return exec::parallel_reduce(
      total, kCandidatesPerChunk, [] { return RankedBest(); },
      [&](RankedBest& local, std::size_t begin, std::size_t end, std::size_t) {
        std::vector<platform::ProcessorId> assignment(n);
        std::vector<std::uint64_t> ids(n * kLanes, 0);
        indexer.unrank(begin, assignment);
        ranked_lane_scan(pipeline, platform, local, begin, end, assignment, ids,
                         [&] { indexer.next(assignment); });
      },
      merge_ranked, pool);
}

RankedBest one_to_one_ranked_best(const pipeline::Pipeline& pipeline,
                                  const platform::Platform& platform,
                                  const util::InjectionIndexer& indexer, std::uint64_t total,
                                  exec::ThreadPool* pool) {
  const std::size_t n = pipeline.stage_count();
  return exec::parallel_reduce(
      total, kCandidatesPerChunk, [] { return RankedBest(); },
      [&](RankedBest& local, std::size_t begin, std::size_t end, std::size_t) {
        std::vector<platform::ProcessorId> assignment(n);
        std::vector<bool> used;
        std::vector<std::uint64_t> ids(n * kLanes, 0);
        indexer.unrank(begin, assignment, used);
        ranked_lane_scan(pipeline, platform, local, begin, end, assignment, ids,
                         [&] { indexer.next(assignment, used); });
      },
      merge_ranked, pool);
}

}  // namespace

GeneralResult exhaustive_general_min_latency(const pipeline::Pipeline& pipeline,
                                             const platform::Platform& platform,
                                             std::uint64_t max_evaluations,
                                             exec::ThreadPool* pool) {
  const std::size_t n = pipeline.stage_count();
  const std::size_t m = platform.processor_count();
  const util::AssignmentIndexer indexer(n, m);
  const std::uint64_t total = indexer.count();
  // A saturated count is over budget even for max_evaluations == UINT64_MAX;
  // it is not a valid rank-space size.
  if (total == kSaturated || total > max_evaluations) {
    return util::budget_exceeded("general-mapping enumeration exceeded " +
                                 std::to_string(max_evaluations) + " evaluations");
  }

  const RankedBest best = general_ranked_best(pipeline, platform, indexer, total, pool);
  std::vector<platform::ProcessorId> assignment(n);
  indexer.unrank(best.rank, assignment);
  return GeneralSolution{mapping::GeneralMapping(std::move(assignment)), best.latency};
}

GeneralResult exhaustive_one_to_one_min_latency(const pipeline::Pipeline& pipeline,
                                                const platform::Platform& platform,
                                                std::uint64_t max_evaluations,
                                                exec::ThreadPool* pool) {
  const std::size_t n = pipeline.stage_count();
  const std::size_t m = platform.processor_count();
  if (n > m) return util::infeasible("one-to-one mappings need n <= m");
  const util::InjectionIndexer indexer(n, m);
  const std::uint64_t total = indexer.count();
  // As above: a saturated count can never fit a uint64 budget.
  if (total == kSaturated || total > max_evaluations) {
    return util::budget_exceeded("one-to-one enumeration exceeded " +
                                 std::to_string(max_evaluations) + " evaluations");
  }

  const RankedBest best = one_to_one_ranked_best(pipeline, platform, indexer, total, pool);
  std::vector<platform::ProcessorId> assignment(n);
  std::vector<bool> used;
  indexer.unrank(best.rank, assignment, used);
  return GeneralSolution{mapping::GeneralMapping(std::move(assignment)), best.latency};
}

std::uint64_t interval_mapping_count(std::size_t stages, std::size_t processors) {
  const std::size_t max_parts = std::min(stages, processors);
  std::uint64_t total = 0;
  for (std::size_t p = 1; p <= max_parts; ++p) {
    total = util::sat_add(total, util::sat_mul(util::binomial(stages - 1, p - 1),
                                               util::count_groupings(processors, p)));
  }
  return total;
}

}  // namespace relap::algorithms
