#pragma once

/// \file interval_mapping.hpp
/// Interval-based replicated mappings (paper Section 2.2).
///
/// An interval mapping partitions the n stages into p consecutive intervals
/// I_j = [d_j, e_j] (0-based, inclusive) with d_1 = 0, d_{j+1} = e_j + 1 and
/// e_p = n-1, and assigns each interval a non-empty *replica group*
/// alloc(j) of processors. Every processor of alloc(j) executes all the
/// stages of I_j on every data set; groups of distinct intervals must be
/// disjoint (a processor executes a single interval).
///
/// These invariants are written once, in `IntervalMapping::make`; the
/// constructor asserts through it, and readers of untrusted input call it and
/// report its error. Fit to a concrete instance (stage count, processor ids
/// in range) is `validate()`'s job (validate.hpp).

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "relap/platform/platform.hpp"
#include "relap/util/expected.hpp"

namespace relap::mapping {

/// A contiguous range of stages, inclusive on both ends, 0-based.
struct Interval {
  std::size_t first = 0;
  std::size_t last = 0;

  [[nodiscard]] std::size_t length() const { return last - first + 1; }
  friend bool operator==(const Interval&, const Interval&) = default;
};

/// One interval together with its replica group.
struct IntervalAssignment {
  Interval stages;
  /// Processor ids executing the interval; non-empty, disjoint from all
  /// other intervals' groups. Kept sorted ascending by `IntervalMapping` so
  /// that equality and hashing are canonical.
  std::vector<platform::ProcessorId> processors;

  friend bool operator==(const IntervalAssignment&, const IntervalAssignment&) = default;
};

/// A structurally well-formed interval mapping (see the file comment).
class IntervalMapping {
 public:
  /// Sorts each replica group and asserts the structural invariants.
  explicit IntervalMapping(std::vector<IntervalAssignment> intervals);

  /// The checked form: sorts each replica group, then returns the first
  /// violated invariant (intervals consecutive from stage 0, first <= last,
  /// groups non-empty, duplicate-free and disjoint) as a "malformed" error.
  [[nodiscard]] static util::Expected<IntervalMapping> make(
      std::vector<IntervalAssignment> intervals);

  /// The whole pipeline [0, n) as one interval replicated on `processors`.
  [[nodiscard]] static IntervalMapping single_interval(
      std::size_t stage_count, std::vector<platform::ProcessorId> processors);

  /// Builds a mapping from interval lengths (a composition of n) and one
  /// replica group per part. `lengths.size() == groups.size()`.
  [[nodiscard]] static IntervalMapping from_composition(
      std::span<const std::size_t> lengths, std::vector<std::vector<platform::ProcessorId>> groups);

  [[nodiscard]] std::size_t interval_count() const { return intervals_.size(); }
  [[nodiscard]] const std::vector<IntervalAssignment>& intervals() const { return intervals_; }
  [[nodiscard]] const IntervalAssignment& interval(std::size_t j) const;

  /// Total number of stages covered (e_p + 1).
  [[nodiscard]] std::size_t stage_count() const { return intervals_.back().stages.last + 1; }

  /// Total number of processors enrolled across all replica groups.
  [[nodiscard]] std::size_t processors_used() const;

  /// Replica-group size k_j of interval j.
  [[nodiscard]] std::size_t replication(std::size_t j) const { return interval(j).processors.size(); }

  /// Human-readable "[0..2]->{1,3} [3..5]->{0}" form.
  [[nodiscard]] std::string describe() const;

  friend bool operator==(const IntervalMapping&, const IntervalMapping&) = default;

 private:
  std::vector<IntervalAssignment> intervals_;
};

}  // namespace relap::mapping
