#include "relap/algorithms/heuristics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <utility>

#include "relap/algorithms/local_search.hpp"
#include "relap/util/strings.hpp"

namespace relap::algorithms {

namespace {

using Group = std::vector<platform::ProcessorId>;

/// Beam width: states kept per boundary, half by optimistic latency and the
/// rest by reliability.
constexpr std::size_t kBeamWidth = 64;
/// Replica-group sizes tried per interval by the beam and the greedy-split
/// ladders go up to this cap.
constexpr std::size_t kMaxReplication = 16;

/// Distinct candidate replica groups drawn from `available` (any order):
/// the k most reliable, the k fastest, and the k best speed-reliability
/// blends, for every k up to the replication cap. Deduplicated.
std::vector<Group> candidate_groups(const platform::Platform& platform, const Group& available,
                                    std::size_t max_replication) {
  std::vector<Group> out;
  if (available.empty()) return out;
  const std::size_t k_max = std::min(available.size(), max_replication);

  Group by_rel = available;
  std::stable_sort(by_rel.begin(), by_rel.end(), [&](auto a, auto b) {
    return platform.failure_prob(a) < platform.failure_prob(b);
  });
  Group by_speed = available;
  std::stable_sort(by_speed.begin(), by_speed.end(),
                   [&](auto a, auto b) { return platform.speed(a) > platform.speed(b); });
  // Blend: prefer processors that are both fast and reliable; score is the
  // product of survival probability and speed.
  Group by_blend = available;
  std::stable_sort(by_blend.begin(), by_blend.end(), [&](auto a, auto b) {
    return (1.0 - platform.failure_prob(a)) * platform.speed(a) >
           (1.0 - platform.failure_prob(b)) * platform.speed(b);
  });

  std::set<Group> seen;
  for (const Group* order : {&by_rel, &by_speed, &by_blend}) {
    for (std::size_t k = 1; k <= k_max; ++k) {
      Group g(order->begin(), order->begin() + static_cast<std::ptrdiff_t>(k));
      std::sort(g.begin(), g.end());
      if (seen.insert(g).second) out.push_back(std::move(g));
    }
  }
  // Every singleton: on Fully Heterogeneous platforms the right processor
  // for an interval can be picked by its *links*, which none of the
  // orderings above see.
  for (const platform::ProcessorId u : available) {
    Group g{u};
    if (seen.insert(g).second) out.push_back(std::move(g));
  }
  return out;
}

Group all_processors(const platform::Platform& platform) {
  Group ids(platform.processor_count());
  for (std::size_t u = 0; u < ids.size(); ++u) ids[u] = u;
  return ids;
}

}  // namespace

void enumerate_single_interval_candidates(const pipeline::Pipeline& pipeline,
                                          const platform::Platform& platform,
                                          const HeuristicOptions&, const CandidateSink& sink) {
  const std::size_t n = pipeline.stage_count();
  const std::vector<platform::ProcessorId> by_rel = platform.by_reliability();

  // Strategy sweeps from candidate_groups plus, for identical-link platforms,
  // the exact structure: for every speed floor, the k most reliable
  // processors at least that fast (contains the single-interval optimum,
  // see single_interval.hpp).
  for (Group& g : candidate_groups(platform, all_processors(platform),
                                   std::max(kMaxReplication, platform.processor_count()))) {
    sink(evaluate(pipeline, platform, mapping::IntervalMapping::single_interval(n, std::move(g))));
  }

  std::vector<double> floors(platform.speeds().begin(), platform.speeds().end());
  std::sort(floors.begin(), floors.end(), std::greater<>());
  floors.erase(std::unique(floors.begin(), floors.end()), floors.end());
  for (const double floor : floors) {
    Group eligible;
    for (const platform::ProcessorId u : by_rel) {
      if (platform.speed(u) >= floor) eligible.push_back(u);
    }
    for (std::size_t k = 1; k <= eligible.size(); ++k) {
      Group g(eligible.begin(), eligible.begin() + static_cast<std::ptrdiff_t>(k));
      sink(evaluate(pipeline, platform,
                    mapping::IntervalMapping::single_interval(n, std::move(g))));
    }
  }
}

void enumerate_greedy_split_candidates(const pipeline::Pipeline& pipeline,
                                       const platform::Platform& platform,
                                       const HeuristicOptions&, const CandidateSink& sink) {
  const std::size_t n = pipeline.stage_count();
  const std::size_t m = platform.processor_count();

  // Augment every interval of `base` with extra reliable unused processors;
  // emits the latency/FP trade-offs replication buys on a fixed partition.
  const auto emit_replication_ladder = [&](const mapping::IntervalMapping& base) {
    std::vector<bool> used(m, false);
    for (const auto& a : base.intervals()) {
      for (const platform::ProcessorId u : a.processors) used[u] = true;
    }
    for (std::size_t target = 0; target < base.interval_count(); ++target) {
      Group unused_by_rel;
      for (const platform::ProcessorId u : platform.by_reliability()) {
        if (!used[u]) unused_by_rel.push_back(u);
      }
      std::vector<mapping::IntervalAssignment> intervals = base.intervals();
      for (std::size_t extra = 1;
           extra <= std::min(unused_by_rel.size(),
                             kMaxReplication - std::min(kMaxReplication,
                                                        intervals[target].processors.size()));
           ++extra) {
        intervals[target].processors.push_back(unused_by_rel[extra - 1]);
        sink(evaluate(pipeline, platform, mapping::IntervalMapping(intervals)));
      }
    }
  };

  // Latency-greedy descent: start from the best single processor and keep
  // applying the best single split (one interval cut in two, the new half
  // assigned the best unused processor) while it reduces latency. This is
  // the move that wins the paper's Figure 3/4 example.
  std::optional<Solution> current;
  for (const platform::ProcessorId u : all_processors(platform)) {
    Solution s = evaluate(pipeline, platform, mapping::IntervalMapping::single_interval(n, {u}));
    if (!current || s.latency < current->latency) current = std::move(s);
  }
  sink(*current);
  emit_replication_ladder(current->mapping);

  for (std::size_t round = 0; round < n; ++round) {
    std::optional<Solution> best_split;
    std::vector<bool> used(m, false);
    for (const auto& a : current->mapping.intervals()) {
      for (const platform::ProcessorId u : a.processors) used[u] = true;
    }
    Group unused;
    for (platform::ProcessorId u = 0; u < m; ++u) {
      if (!used[u]) unused.push_back(u);
    }
    if (unused.empty()) break;

    const auto& intervals = current->mapping.intervals();
    for (std::size_t j = 0; j < intervals.size(); ++j) {
      const auto& a = intervals[j];
      for (std::size_t cut = a.stages.first; cut < a.stages.last; ++cut) {
        for (const platform::ProcessorId fresh : unused) {
          // Keep the existing group on the left half, the fresh processor on
          // the right half (and the mirrored variant).
          for (const bool fresh_on_right : {true, false}) {
            std::vector<mapping::IntervalAssignment> next = intervals;
            mapping::IntervalAssignment left{{a.stages.first, cut}, a.processors};
            mapping::IntervalAssignment right{{cut + 1, a.stages.last}, {fresh}};
            if (!fresh_on_right) std::swap(left.processors, right.processors);
            next[j] = left;
            next.insert(next.begin() + static_cast<std::ptrdiff_t>(j) + 1, right);
            Solution s = evaluate(pipeline, platform, mapping::IntervalMapping(std::move(next)));
            sink(s);
            if (!best_split || s.latency < best_split->latency) best_split = std::move(s);
          }
        }
      }
    }
    if (!best_split || best_split->latency >= current->latency) break;
    current = std::move(best_split);
    emit_replication_ladder(current->mapping);
  }
}

namespace {

/// Beam-search state: stages [0, boundary) are fully assigned; the last
/// interval's sender-side cost (compute + transfer to its successor) is
/// still pending because it depends on the successor's group.
struct BeamState {
  std::uint64_t used_mask = 0;
  std::vector<mapping::IntervalAssignment> intervals;
  double latency_prefix = 0.0;  ///< all terms except the pending interval's
  double log_survival = 0.0;    ///< includes the pending interval's group
};

/// Eq. (2) sender-side term of interval `a` when its successor group is
/// `next` (or P_out when `next` is null).
double pending_term(const pipeline::Pipeline& pipeline, const platform::Platform& platform,
                    const mapping::IntervalAssignment& a, const Group* next) {
  const double work = pipeline.work_sum(a.stages.first, a.stages.last);
  const double out_size = pipeline.data(a.stages.last + 1);
  double worst = 0.0;
  for (const platform::ProcessorId u : a.processors) {
    double term = work / platform.speed(u);
    if (next != nullptr) {
      for (const platform::ProcessorId v : *next) term += out_size / platform.bandwidth(u, v);
    } else {
      term += out_size / platform.bandwidth_out(u);
    }
    worst = std::max(worst, term);
  }
  return worst;
}

double group_log_survival(const platform::Platform& platform, const Group& g) {
  double product = 1.0;
  for (const platform::ProcessorId u : g) product *= platform.failure_prob(u);
  if (product >= 1.0) return -std::numeric_limits<double>::infinity();
  return std::log1p(-product);
}

}  // namespace

void enumerate_beam_candidates(const pipeline::Pipeline& pipeline,
                               const platform::Platform& platform,
                               const HeuristicOptions& options, const CandidateSink& sink) {
  const std::size_t n = pipeline.stage_count();
  const std::size_t m = platform.processor_count();
  if (m > 64) return;  // the used-set bitmask caps the beam at 64 processors

  // beams[i]: states whose assigned prefix is exactly stages [0, i).
  std::vector<std::vector<BeamState>> beams(n + 1);
  beams[0].push_back(BeamState{});

  // Admissible latency estimate for pruning: the prefix plus a lower bound
  // on the pending interval's unpaid term (its compute on the group's
  // slowest member; the outgoing transfers are bounded below by zero).
  // Pruning on the raw prefix alone would let a cheap-so-far state with a
  // huge pending compute (e.g. a slow reliable processor holding the whole
  // pipeline) shadow genuinely better completions.
  const auto optimistic_total = [&](const BeamState& s) {
    if (s.intervals.empty()) return s.latency_prefix;
    const mapping::IntervalAssignment& last = s.intervals.back();
    double slowest_inv = 0.0;  // 1 / min speed: the pending max runs at least this slow
    for (const platform::ProcessorId u : last.processors) {
      slowest_inv = std::max(slowest_inv, 1.0 / platform.speed(u));
    }
    return s.latency_prefix +
           pipeline.work_sum(last.stages.first, last.stages.last) * slowest_inv;
  };

  // Union-keep pruning: half the width goes to the latency-cheapest states,
  // half to the most reliable ones. A Pareto-domination filter would be
  // wrong here: on Fully Heterogeneous platforms two states with the same
  // optimistic latency and ordered survivals can still complete differently
  // (the bound cannot see link identities), so "dominated" states must
  // survive as long as the beam has room.
  const auto prune = [&](std::vector<BeamState>& states) {
    if (states.size() <= kBeamWidth) return;
    constexpr std::size_t half = kBeamWidth / 2;
    std::stable_sort(states.begin(), states.end(),
                     [&](const BeamState& a, const BeamState& b) {
                       return optimistic_total(a) < optimistic_total(b);
                     });
    std::vector<BeamState> kept(std::make_move_iterator(states.begin()),
                                std::make_move_iterator(states.begin() +
                                                        static_cast<std::ptrdiff_t>(half)));
    std::stable_sort(states.begin() + static_cast<std::ptrdiff_t>(half), states.end(),
                     [](const BeamState& a, const BeamState& b) {
                       return a.log_survival > b.log_survival;
                     });
    for (std::size_t i = half; i < states.size() && kept.size() < kBeamWidth; ++i) {
      kept.push_back(std::move(states[i]));
    }
    states = std::move(kept);
  };

  for (std::size_t i = 0; i < n; ++i) {
    // Cancellation poll per beam level: a cancelled solve stops extending
    // states and emits nothing (the entry points turn that into an error).
    if (util::cancel_requested(options.cancel)) return;
    prune(beams[i]);
    for (const BeamState& state : beams[i]) {
      Group unused;
      for (platform::ProcessorId u = 0; u < m; ++u) {
        if (!(state.used_mask & (std::uint64_t{1} << u))) unused.push_back(u);
      }
      if (unused.empty()) continue;
      const std::vector<Group> groups = candidate_groups(platform, unused, kMaxReplication);
      for (std::size_t j = i; j < n; ++j) {
        for (const Group& g : groups) {
          BeamState next = state;
          if (state.intervals.empty()) {
            for (const platform::ProcessorId u : g) {
              next.latency_prefix += pipeline.data(0) / platform.bandwidth_in(u);
            }
          } else {
            next.latency_prefix +=
                pending_term(pipeline, platform, state.intervals.back(), &g);
          }
          next.log_survival += group_log_survival(platform, g);
          for (const platform::ProcessorId u : g) next.used_mask |= std::uint64_t{1} << u;
          next.intervals.push_back(mapping::IntervalAssignment{{i, j}, g});
          beams[j + 1].push_back(std::move(next));
        }
      }
    }
  }

  prune(beams[n]);
  // Survivors are scored from scratch by the scalar oracle (a state's
  // running prefix lacks the last interval's term and sums in another
  // order) and sunk in state order, which the sink's first-wins ties follow.
  for (BeamState& state : beams[n]) {
    sink(evaluate(pipeline, platform, mapping::IntervalMapping(std::move(state.intervals))));
  }
}

namespace {

Result pick_best(const pipeline::Pipeline& pipeline, const platform::Platform& platform,
                 const HeuristicOptions& options, double cap,
                 bool (*better)(const Solution&, const Solution&, double),
                 bool (*feasible)(const Solution&, double), const char* criterion) {
  std::optional<Solution> best;
  const CandidateSink sink = [&](Solution s) {
    if (!best || better(s, *best, cap)) best = std::move(s);
  };
  enumerate_single_interval_candidates(pipeline, platform, options, sink);
  if (!util::cancel_requested(options.cancel)) {
    enumerate_greedy_split_candidates(pipeline, platform, options, sink);
  }
  if (!util::cancel_requested(options.cancel)) {
    enumerate_beam_candidates(pipeline, platform, options, sink);
  }
  if (util::cancel_requested(options.cancel)) {
    return util::make_error("cancelled", "heuristic search was cancelled before completing");
  }

  if (!best || !feasible(*best, cap)) {
    return util::infeasible(std::string("no heuristic candidate meets the ") + criterion +
                            " threshold " + util::format_double(cap));
  }
  return *std::move(best);
}

}  // namespace

Result heuristic_min_fp_for_latency(const pipeline::Pipeline& pipeline,
                                    const platform::Platform& platform, double max_latency,
                                    const HeuristicOptions& options) {
  Result best = pick_best(
      pipeline, platform, options, max_latency, &better_min_fp,
      [](const Solution& s, double cap) { return within_cap(s.latency, cap); }, "latency");
  if (!best) return best;
  return local_search_min_fp(pipeline, platform, std::move(best).take(), max_latency,
                             LocalSearchOptions{});
}

Result heuristic_min_latency_for_fp(const pipeline::Pipeline& pipeline,
                                    const platform::Platform& platform,
                                    double max_failure_probability,
                                    const HeuristicOptions& options) {
  Result best = pick_best(
      pipeline, platform, options, max_failure_probability, &better_min_latency,
      [](const Solution& s, double cap) { return within_cap(s.failure_probability, cap); },
      "failure-probability");
  if (!best) return best;
  return local_search_min_latency(pipeline, platform, std::move(best).take(),
                                  max_failure_probability, LocalSearchOptions{});
}

}  // namespace relap::algorithms
