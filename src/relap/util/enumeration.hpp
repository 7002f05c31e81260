#pragma once

/// \file enumeration.hpp
/// Combinatorial enumeration primitives used by the exact (exponential)
/// baseline solvers in `relap::algorithms`.
///
/// All enumerators take a callback returning `bool`: `true` continues the
/// enumeration, `false` aborts it early. The enumerator itself returns `true`
/// iff the enumeration ran to completion (was not aborted). Callbacks are
/// templated (not `std::function`) so the enumeration hot loops inline them —
/// the exhaustive solvers visit tens of millions of candidates and a type-
/// erased call per candidate is measurable.
///
/// Beyond the visitors, two *indexers* provide lexicographic rank/unrank over
/// the same enumeration orders, so parallel drivers can split the candidate
/// index space [0, count) into uniform chunks instead of materializing
/// blocks of prefixes:
///  * `CompositionIndexer` — compositions of n into exactly p positive parts;
///  * `GroupingIndexer` — assignments of m items to p disjoint non-empty
///    groups (plus "unused"), the words `for_each_grouping` visits.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "relap/util/assert.hpp"

namespace relap::util {

namespace detail {

template <typename Visit>
bool compose_rec(std::size_t remaining, std::size_t parts_left, std::vector<std::size_t>& parts,
                 const Visit& visit) {
  if (remaining == 0) return visit(std::span<const std::size_t>(parts));
  if (parts_left == 0) return true;  // dead branch, not an abort
  for (std::size_t take = 1; take <= remaining; ++take) {
    // The remaining stages must still fit: with parts_left-1 more parts each
    // of size >= 1 we can absorb anything, so no upper-bound prune is needed
    // beyond `take <= remaining`; but if this is the last allowed part it
    // must take everything.
    if (parts_left == 1 && take != remaining) continue;
    parts.push_back(take);
    const bool keep_going = compose_rec(remaining - take, parts_left - 1, parts, visit);
    parts.pop_back();
    if (!keep_going) return false;
  }
  return true;
}

template <typename Visit>
bool grouping_rec(std::size_t item, std::size_t m, std::size_t p, std::vector<std::size_t>& group_of,
                  std::vector<std::size_t>& group_sizes, std::size_t empty_groups,
                  const Visit& visit) {
  if (item == m) {
    if (empty_groups > 0) return true;  // dead branch
    return visit(std::span<const std::size_t>(group_of));
  }
  // Prune: every still-empty group needs at least one of the remaining items.
  if (empty_groups > m - item) return true;
  for (std::size_t g = 0; g <= p; ++g) {  // g == p means "unused"
    const bool fills_empty = g < p && group_sizes[g] == 0;
    group_of[item] = g;
    if (g < p) ++group_sizes[g];
    const bool keep_going =
        grouping_rec(item + 1, m, p, group_of, group_sizes,
                     fills_empty ? empty_groups - 1 : empty_groups, visit);
    if (g < p) --group_sizes[g];
    if (!keep_going) return false;
  }
  return true;
}

}  // namespace detail

/// Visits every composition of `n` into between 1 and `max_parts` ordered
/// positive parts. A composition (c_1, ..., c_p) with sum n corresponds to the
/// partition of stages [0, n) into intervals of those lengths.
/// Preconditions: n >= 1, max_parts >= 1.
template <typename Visit>
bool for_each_composition(std::size_t n, std::size_t max_parts, const Visit& visit) {
  RELAP_ASSERT(n >= 1, "composition of zero stages");
  RELAP_ASSERT(max_parts >= 1, "need at least one part");
  std::vector<std::size_t> parts;
  parts.reserve(n < max_parts ? n : max_parts);
  return detail::compose_rec(n, n < max_parts ? n : max_parts, parts, visit);
}

/// Visits every function g: {0,...,m-1} -> {0,...,p-1, UNUSED} such that each
/// of the p groups is non-empty, where UNUSED = p means "item not assigned to
/// any group". The callback receives the group id per item.
/// This enumerates all ways to pick p disjoint non-empty replica groups out
/// of m processors. Preconditions: p >= 1, m >= p.
template <typename Visit>
bool for_each_grouping(std::size_t m, std::size_t p, const Visit& visit) {
  RELAP_ASSERT(p >= 1, "need at least one group");
  RELAP_ASSERT(m >= p, "cannot fill p groups with fewer than p items");
  std::vector<std::size_t> group_of(m, 0);
  std::vector<std::size_t> group_sizes(p, 0);
  return detail::grouping_rec(0, m, p, group_of, group_sizes, p, visit);
}

/// Number of ordered sequences of p disjoint non-empty subsets of an m-set
/// (the number of callbacks `for_each_grouping` makes): the surjection-style
/// inclusion-exclusion count sum_{j=0}^{p} (-1)^j C(p,j) (p-j+1)^m ... computed
/// exactly by DP instead. Used by budgeting logic in the exhaustive solver.
[[nodiscard]] std::uint64_t count_groupings(std::size_t m, std::size_t p);

/// Binomial coefficient with saturation at uint64 max.
[[nodiscard]] std::uint64_t binomial(std::size_t n, std::size_t k);

/// The saturation sentinel every counting helper and indexer `count()`
/// sticks at on overflow. A count equal to this is not a real size — callers
/// must reject it before unranking or budgeting against it.
inline constexpr std::uint64_t kSaturated = ~std::uint64_t{0};

/// Saturating uint64 arithmetic for the counting helpers and for clients
/// composing candidate-space sizes from them: once any factor or term
/// saturates, the result sticks at `kSaturated` instead of wrapping.
[[nodiscard]] constexpr std::uint64_t sat_mul(std::uint64_t a, std::uint64_t b) {
  if (a == 0 || b == 0) return 0;
  if (a > kSaturated / b) return kSaturated;
  return a * b;
}

[[nodiscard]] constexpr std::uint64_t sat_add(std::uint64_t a, std::uint64_t b) {
  if (a > kSaturated - b) return kSaturated;
  return a + b;
}

/// Lexicographic rank/unrank over compositions of `n` into exactly `parts`
/// positive parts, in the order `for_each_composition` visits them (which,
/// restricted to a fixed part count, is lexicographic on the part sequence).
/// Ranks are in [0, C(n-1, parts-1)).
class CompositionIndexer {
 public:
  /// Preconditions: 1 <= parts <= n.
  CompositionIndexer(std::size_t n, std::size_t parts);

  [[nodiscard]] std::size_t total() const { return n_; }
  [[nodiscard]] std::size_t parts() const { return parts_; }

  /// C(n-1, parts-1), saturating at uint64 max.
  [[nodiscard]] std::uint64_t count() const { return count_; }

  /// Writes the `rank`-th composition into `lengths` (resized to `parts`).
  /// Precondition: rank < count().
  void unrank(std::uint64_t rank, std::vector<std::size_t>& lengths) const;

  /// Inverse of `unrank`. Precondition: `lengths` is a composition of n into
  /// exactly `parts` positive parts.
  [[nodiscard]] std::uint64_t rank(std::span<const std::size_t> lengths) const;

 private:
  std::size_t n_;
  std::size_t parts_;
  std::uint64_t count_;
};

/// Lexicographic rank/unrank over the words `for_each_grouping(m, p)` visits:
/// functions {0..m-1} -> {0..p} (p = unused) with every group 0..p-1
/// non-empty, ordered lexicographically on (g_0, ..., g_{m-1}).
///
/// The scheme hinges on the completion count depending only on (items left,
/// still-empty groups): N(r, e) = (p+1-e) N(r-1, e) + e N(r-1, e-1), which
/// the constructor tabulates once. unrank is O(m p); `next` (lexicographic
/// successor) is amortized O(p), which is what the chunked enumerators use
/// in their inner loop.
class GroupingIndexer {
 public:
  /// Preconditions: p >= 1, m >= p.
  GroupingIndexer(std::size_t m, std::size_t p);

  [[nodiscard]] std::size_t items() const { return m_; }
  [[nodiscard]] std::size_t groups() const { return p_; }

  /// Number of valid groupings; equals `count_groupings(m, p)`. Saturates.
  [[nodiscard]] std::uint64_t count() const { return completions(m_, p_); }

  /// Writes the `rank`-th grouping into `group_of` (size m) and the group
  /// occupancy into `group_sizes` (size p). Precondition: rank < count().
  void unrank(std::uint64_t rank, std::span<std::size_t> group_of,
              std::span<std::size_t> group_sizes) const;

  /// Inverse of `unrank`. Precondition: `group_of` is a valid grouping word.
  [[nodiscard]] std::uint64_t rank(std::span<const std::size_t> group_of) const;

  /// Advances `group_of` (with its `group_sizes` kept in sync) to the
  /// lexicographic successor. Returns false iff `group_of` was the last
  /// grouping (in which case both spans are left in an unspecified state).
  bool next(std::span<std::size_t> group_of, std::span<std::size_t> group_sizes) const;

 private:
  /// N(items_left, empty): valid completions of a prefix. Saturating.
  [[nodiscard]] std::uint64_t completions(std::size_t items_left, std::size_t empty) const {
    return table_[items_left * (p_ + 1) + empty];
  }

  std::size_t m_;
  std::size_t p_;
  std::vector<std::uint64_t> table_;  // (m+1) x (p+1)
};

/// Rank/unrank over all symbols^length words (stage -> processor
/// assignments), in the little-endian odometer order the serial general
/// enumerator visits: digit 0 spins fastest. The rank is the base-`symbols`
/// value of the word read little-endian.
class AssignmentIndexer {
 public:
  /// Preconditions: length >= 1, symbols >= 1.
  AssignmentIndexer(std::size_t length, std::size_t symbols);

  [[nodiscard]] std::size_t length() const { return length_; }
  [[nodiscard]] std::size_t symbols() const { return symbols_; }

  /// symbols^length, saturating at uint64 max. A saturated count means the
  /// rank space is unaddressable — callers must reject it before unranking.
  [[nodiscard]] std::uint64_t count() const { return count_; }

  /// Writes the `rank`-th word into `word` (size length).
  /// Precondition: rank < count() and count() is not saturated.
  void unrank(std::uint64_t rank, std::span<std::size_t> word) const;

  /// Inverse of `unrank`.
  [[nodiscard]] std::uint64_t rank(std::span<const std::size_t> word) const;

  /// Advances `word` to its odometer successor; false iff `word` was the
  /// last word (all digits symbols-1), in which case it wraps to all zeros.
  bool next(std::span<std::size_t> word) const;

 private:
  std::size_t length_;
  std::size_t symbols_;
  std::uint64_t count_;
};

/// Rank/unrank over injections [0, length) -> [0, symbols) in lexicographic
/// order on the word — the serial DFS visit order: at each position, the
/// unused symbols ascending. The rank is mixed-radix with per-position
/// weight fall(symbols-k-1, length-k-1) (completions of the suffix).
class InjectionIndexer {
 public:
  /// Preconditions: 1 <= length <= symbols.
  InjectionIndexer(std::size_t length, std::size_t symbols);

  [[nodiscard]] std::size_t length() const { return length_; }
  [[nodiscard]] std::size_t symbols() const { return symbols_; }

  /// Falling factorial symbols * (symbols-1) * ... * (symbols-length+1),
  /// saturating at uint64 max (see AssignmentIndexer::count on saturation).
  [[nodiscard]] std::uint64_t count() const { return count_; }

  /// Writes the `rank`-th injection into `word` (size length); `used` is
  /// reset to size `symbols` and left marking the decoded word, as the
  /// scratch `next` advances with. Precondition: rank < count() and count()
  /// is not saturated.
  void unrank(std::uint64_t rank, std::span<std::size_t> word, std::vector<bool>& used) const;

  /// Inverse of `unrank`. Precondition: `word` is a valid injection.
  [[nodiscard]] std::uint64_t rank(std::span<const std::size_t> word) const;

  /// Advances `word` (with its `used` marks kept in sync) to the
  /// lexicographically next injection; false iff `word` was the last one
  /// (in which case word/used are left in an unspecified state).
  bool next(std::span<std::size_t> word, std::vector<bool>& used) const;

 private:
  std::size_t length_;
  std::size_t symbols_;
  std::uint64_t count_;
  std::vector<std::uint64_t> weights_;  ///< weights_[k] = fall(symbols-k-1, length-k-1)
};

}  // namespace relap::util
