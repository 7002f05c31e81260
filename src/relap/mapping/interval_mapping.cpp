#include "relap/mapping/interval_mapping.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "relap/util/assert.hpp"

namespace relap::mapping {

namespace {

/// Sorts each replica group ascending and returns the first violated
/// structural invariant: the one rule behind the constructor and `make`.
std::optional<util::Error> sort_and_check(std::vector<IntervalAssignment>& intervals) {
  using util::malformed;
  if (intervals.empty()) return malformed("an interval mapping needs at least one interval");
  if (intervals.front().stages.first != 0) return malformed("first interval must start at stage 0");
  std::vector<platform::ProcessorId> all;
  for (std::size_t j = 0; j < intervals.size(); ++j) {
    IntervalAssignment& a = intervals[j];
    if (a.stages.first > a.stages.last) {
      return malformed("interval bounds must satisfy first <= last");
    }
    // d_{j+1} = e_j + 1, without letting e_j + 1 wrap around to stage 0.
    if (j > 0 && (a.stages.first == 0 || a.stages.first != intervals[j - 1].stages.last + 1)) {
      return malformed("intervals must be consecutive");
    }
    if (a.processors.empty()) return malformed("every interval needs a non-empty replica group");
    std::sort(a.processors.begin(), a.processors.end());
    if (std::adjacent_find(a.processors.begin(), a.processors.end()) != a.processors.end()) {
      return malformed("replica group contains a duplicate processor");
    }
    all.insert(all.end(), a.processors.begin(), a.processors.end());
  }
  // No group repeats an id, so any repeat left is shared by two groups.
  std::sort(all.begin(), all.end());
  if (std::adjacent_find(all.begin(), all.end()) != all.end()) {
    return malformed("replica groups of distinct intervals must be disjoint");
  }
  return std::nullopt;
}

}  // namespace

IntervalMapping::IntervalMapping(std::vector<IntervalAssignment> intervals)
    : intervals_(std::move(intervals)) {
  const std::optional<util::Error> violation = sort_and_check(intervals_);
  RELAP_ASSERT(!violation, violation->message);
}

util::Expected<IntervalMapping> IntervalMapping::make(std::vector<IntervalAssignment> intervals) {
  if (std::optional<util::Error> violation = sort_and_check(intervals)) return *std::move(violation);
  return IntervalMapping(std::move(intervals));
}

IntervalMapping IntervalMapping::single_interval(std::size_t stage_count,
                                                 std::vector<platform::ProcessorId> processors) {
  RELAP_ASSERT(stage_count >= 1, "pipeline needs at least one stage");
  return IntervalMapping({IntervalAssignment{{0, stage_count - 1}, std::move(processors)}});
}

IntervalMapping IntervalMapping::from_composition(
    std::span<const std::size_t> lengths,
    std::vector<std::vector<platform::ProcessorId>> groups) {
  RELAP_ASSERT(lengths.size() == groups.size(), "need one replica group per interval length");
  std::vector<IntervalAssignment> intervals;
  intervals.reserve(lengths.size());
  std::size_t next = 0;
  for (std::size_t j = 0; j < lengths.size(); ++j) {
    RELAP_ASSERT(lengths[j] >= 1, "interval lengths must be positive");
    intervals.push_back(IntervalAssignment{{next, next + lengths[j] - 1}, std::move(groups[j])});
    next += lengths[j];
  }
  return IntervalMapping(std::move(intervals));
}

const IntervalAssignment& IntervalMapping::interval(std::size_t j) const {
  RELAP_ASSERT(j < intervals_.size(), "interval index out of range");
  return intervals_[j];
}

std::size_t IntervalMapping::processors_used() const {
  std::size_t total = 0;
  for (const IntervalAssignment& a : intervals_) total += a.processors.size();
  return total;
}

std::string IntervalMapping::describe() const {
  std::string out;
  for (std::size_t j = 0; j < intervals_.size(); ++j) {
    if (j > 0) out += ' ';
    const IntervalAssignment& a = intervals_[j];
    out += '[' + std::to_string(a.stages.first) + ".." + std::to_string(a.stages.last) + "]->{";
    for (std::size_t i = 0; i < a.processors.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(a.processors[i]);
    }
    out += '}';
  }
  return out;
}

}  // namespace relap::mapping
