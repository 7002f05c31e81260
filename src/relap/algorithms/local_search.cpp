#include "relap/algorithms/local_search.hpp"

#include <functional>
#include <optional>
#include <utility>
#include <vector>

namespace relap::algorithms {

namespace {

using Assignments = std::vector<mapping::IntervalAssignment>;

/// Emits every neighbor of `current` to `visit`. Neighbors are structurally
/// valid interval mappings (the IntervalMapping constructor re-checks).
void for_each_neighbor(const platform::Platform& platform, const Assignments& current,
                       const std::function<void(Assignments)>& visit) {
  const std::size_t m = platform.processor_count();
  std::vector<bool> used(m, false);
  for (const auto& a : current) {
    for (const platform::ProcessorId u : a.processors) used[u] = true;
  }
  std::vector<platform::ProcessorId> unused;
  for (platform::ProcessorId u = 0; u < m; ++u) {
    if (!used[u]) unused.push_back(u);
  }

  for (std::size_t j = 0; j < current.size(); ++j) {
    const auto& a = current[j];

    // Boundary shifts with the next interval.
    if (j + 1 < current.size()) {
      if (a.stages.length() > 1) {  // give the last stage away
        Assignments next = current;
        --next[j].stages.last;
        --next[j + 1].stages.first;
        visit(std::move(next));
      }
      if (current[j + 1].stages.length() > 1) {  // take a stage
        Assignments next = current;
        ++next[j].stages.last;
        ++next[j + 1].stages.first;
        visit(std::move(next));
      }
      // Merge with the next interval.
      {
        Assignments next = current;
        next[j].stages.last = next[j + 1].stages.last;
        next[j].processors.insert(next[j].processors.end(), next[j + 1].processors.begin(),
                                  next[j + 1].processors.end());
        next.erase(next.begin() + static_cast<std::ptrdiff_t>(j) + 1);
        visit(std::move(next));
      }
    }

    // Splits: left half keeps the group, right half takes one member (when
    // the group has >= 2) or one unused processor.
    for (std::size_t cut = a.stages.first; cut < a.stages.last; ++cut) {
      if (a.processors.size() >= 2) {
        Assignments next = current;
        const platform::ProcessorId moved = next[j].processors.back();
        next[j].processors.pop_back();
        next[j].stages.last = cut;
        next.insert(next.begin() + static_cast<std::ptrdiff_t>(j) + 1,
                    mapping::IntervalAssignment{{cut + 1, a.stages.last}, {moved}});
        visit(std::move(next));
      }
      for (const platform::ProcessorId fresh : unused) {
        Assignments next = current;
        next[j].stages.last = cut;
        next.insert(next.begin() + static_cast<std::ptrdiff_t>(j) + 1,
                    mapping::IntervalAssignment{{cut + 1, a.stages.last}, {fresh}});
        visit(std::move(next));
      }
    }

    // Replica-set edits.
    for (const platform::ProcessorId fresh : unused) {
      Assignments next = current;
      next[j].processors.push_back(fresh);
      visit(std::move(next));
    }
    if (a.processors.size() >= 2) {
      for (std::size_t i = 0; i < a.processors.size(); ++i) {
        Assignments next = current;
        next[j].processors.erase(next[j].processors.begin() + static_cast<std::ptrdiff_t>(i));
        visit(std::move(next));
      }
    }
    for (std::size_t i = 0; i < a.processors.size(); ++i) {
      for (const platform::ProcessorId fresh : unused) {
        Assignments next = current;
        next[j].processors[i] = fresh;
        visit(std::move(next));
      }
    }
  }
}

Solution descend(const pipeline::Pipeline& pipeline, const platform::Platform& platform,
                 Solution start, double cap, const LocalSearchOptions& options,
                 bool (*better)(const Solution&, const Solution&, double)) {
  Solution best = std::move(start);
  for (std::size_t round = 0; round < options.max_rounds; ++round) {
    std::optional<Solution> improved;
    for_each_neighbor(platform, best.mapping.intervals(), [&](Assignments next) {
      Solution candidate = evaluate(pipeline, platform, mapping::IntervalMapping(std::move(next)));
      const Solution& incumbent = improved ? *improved : best;
      if (better(candidate, incumbent, cap)) improved = std::move(candidate);
    });
    if (!improved) break;
    best = *std::move(improved);
  }
  return best;
}

}  // namespace

Solution local_search_min_fp(const pipeline::Pipeline& pipeline,
                             const platform::Platform& platform, Solution start,
                             double max_latency, const LocalSearchOptions& options) {
  return descend(pipeline, platform, std::move(start), max_latency, options, &better_min_fp);
}

Solution local_search_min_latency(const pipeline::Pipeline& pipeline,
                                  const platform::Platform& platform, Solution start,
                                  double max_failure_probability,
                                  const LocalSearchOptions& options) {
  return descend(pipeline, platform, std::move(start), max_failure_probability, options,
                 &better_min_latency);
}

}  // namespace relap::algorithms
