#include "relap/util/enumeration.hpp"

#include <algorithm>
#include <limits>

namespace relap::util {


std::uint64_t binomial(std::size_t n, std::size_t k) {
  if (k > n) return 0;
  k = std::min(k, n - k);
  // 128-bit intermediates: C(64, 32) fits in uint64 but its running products
  // do not. (__extension__ silences -Wpedantic for the GCC/Clang extension.)
  __extension__ typedef unsigned __int128 UWide;
  UWide result = 1;
  for (std::size_t i = 0; i < k; ++i) {
    result = result * static_cast<UWide>(n - i) / static_cast<UWide>(i + 1);
    if (result > static_cast<UWide>(kSaturated)) return kSaturated;
  }
  return static_cast<std::uint64_t>(result);
}

std::uint64_t count_groupings(std::size_t m, std::size_t p) {
  // Inclusion-exclusion over which of the p groups stay empty:
  //   sum_{j=0}^{p} (-1)^j C(p, j) (p - j + 1)^m
  // computed with signed 128-bit arithmetic, saturating on overflow.
  // (__int128 is a GCC/Clang extension; __extension__ keeps -Wpedantic
  // quiet. It is exact far beyond any instance the enumerator could visit.)
  __extension__ typedef __int128 Wide;
  Wide total = 0;
  for (std::size_t j = 0; j <= p; ++j) {
    Wide term = static_cast<Wide>(binomial(p, j));
    for (std::size_t i = 0; i < m; ++i) term *= static_cast<Wide>(p - j + 1);
    total += (j % 2 == 0) ? term : -term;
  }
  if (total < 0) return 0;
  if (total > static_cast<Wide>(kSaturated)) return kSaturated;
  return static_cast<std::uint64_t>(total);
}

// ---------------------------------------------------------------------------
// CompositionIndexer
// ---------------------------------------------------------------------------

CompositionIndexer::CompositionIndexer(std::size_t n, std::size_t parts)
    : n_(n), parts_(parts), count_(binomial(n - 1, parts - 1)) {
  RELAP_ASSERT(parts >= 1, "composition needs at least one part");
  RELAP_ASSERT(parts <= n, "cannot split n stages into more than n parts");
}

void CompositionIndexer::unrank(std::uint64_t rank, std::vector<std::size_t>& lengths) const {
  RELAP_ASSERT(rank < count_, "composition rank out of range");
  lengths.clear();
  std::size_t remaining = n_;
  for (std::size_t parts_left = parts_; parts_left > 1; --parts_left) {
    // Choosing `take` for this part leaves C(remaining-take-1, parts_left-2)
    // compositions of the rest; walk take upward until rank falls inside.
    std::size_t take = 1;
    while (true) {
      const std::uint64_t completions = binomial(remaining - take - 1, parts_left - 2);
      if (rank < completions) break;
      rank -= completions;
      ++take;
    }
    lengths.push_back(take);
    remaining -= take;
  }
  lengths.push_back(remaining);
}

std::uint64_t CompositionIndexer::rank(std::span<const std::size_t> lengths) const {
  RELAP_ASSERT(lengths.size() == parts_, "composition has the wrong part count");
  std::uint64_t rank = 0;
  std::size_t remaining = n_;
  for (std::size_t j = 0; j + 1 < parts_; ++j) {
    const std::size_t parts_left = parts_ - j;
    for (std::size_t take = 1; take < lengths[j]; ++take) {
      rank += binomial(remaining - take - 1, parts_left - 2);
    }
    remaining -= lengths[j];
  }
  return rank;
}

// ---------------------------------------------------------------------------
// GroupingIndexer
// ---------------------------------------------------------------------------

GroupingIndexer::GroupingIndexer(std::size_t m, std::size_t p)
    : m_(m), p_(p), table_((m + 1) * (p + 1), 0) {
  RELAP_ASSERT(p >= 1, "need at least one group");
  RELAP_ASSERT(m >= p, "cannot fill p groups with fewer than p items");
  // N(0, 0) = 1; N(0, e > 0) = 0 (an empty suffix cannot fill empty groups);
  // N(r, e) = (p + 1 - e) N(r-1, e) + e N(r-1, e-1): the next item either
  // goes to an already-filled group or "unused" (p + 1 - e choices, empties
  // unchanged) or fills one of the e empty groups.
  table_[0] = 1;
  for (std::size_t r = 1; r <= m; ++r) {
    for (std::size_t e = 0; e <= p; ++e) {
      const std::uint64_t stay = sat_mul(static_cast<std::uint64_t>(p + 1 - e),
                                         table_[(r - 1) * (p + 1) + e]);
      const std::uint64_t fill =
          e == 0 ? 0
                 : sat_mul(static_cast<std::uint64_t>(e), table_[(r - 1) * (p + 1) + (e - 1)]);
      table_[r * (p + 1) + e] = sat_add(stay, fill);
    }
  }
}

void GroupingIndexer::unrank(std::uint64_t rank, std::span<std::size_t> group_of,
                             std::span<std::size_t> group_sizes) const {
  RELAP_ASSERT(group_of.size() == m_, "group_of span has the wrong size");
  RELAP_ASSERT(group_sizes.size() == p_, "group_sizes span has the wrong size");
  RELAP_ASSERT(rank < count(), "grouping rank out of range");
  std::fill(group_sizes.begin(), group_sizes.end(), std::size_t{0});
  std::size_t empty = p_;
  for (std::size_t item = 0; item < m_; ++item) {
    const std::size_t left = m_ - item - 1;
    for (std::size_t g = 0; g <= p_; ++g) {
      const bool fills = g < p_ && group_sizes[g] == 0;
      const std::size_t e = fills ? empty - 1 : empty;
      const std::uint64_t below = completions(left, e);
      if (rank < below) {
        group_of[item] = g;
        if (g < p_) ++group_sizes[g];
        empty = e;
        break;
      }
      rank -= below;
    }
  }
}

std::uint64_t GroupingIndexer::rank(std::span<const std::size_t> group_of) const {
  RELAP_ASSERT(group_of.size() == m_, "group_of span has the wrong size");
  std::vector<std::size_t> sizes(p_, 0);
  std::uint64_t rank = 0;
  std::size_t empty = p_;
  for (std::size_t item = 0; item < m_; ++item) {
    const std::size_t left = m_ - item - 1;
    const std::size_t chosen = group_of[item];
    for (std::size_t g = 0; g < chosen; ++g) {
      const bool fills = g < p_ && sizes[g] == 0;
      rank += completions(left, fills ? empty - 1 : empty);
    }
    if (chosen < p_) {
      if (sizes[chosen] == 0) --empty;
      ++sizes[chosen];
    }
  }
  return rank;
}

bool GroupingIndexer::next(std::span<std::size_t> group_of,
                           std::span<std::size_t> group_sizes) const {
  std::size_t empty = 0;
  for (std::size_t g = 0; g < p_; ++g) empty += group_sizes[g] == 0 ? 1 : 0;
  for (std::size_t item = m_; item-- > 0;) {
    const std::size_t current = group_of[item];
    if (current < p_) {
      if (--group_sizes[current] == 0) ++empty;
    }
    const std::size_t left = m_ - item - 1;
    for (std::size_t g = current + 1; g <= p_; ++g) {
      const bool fills = g < p_ && group_sizes[g] == 0;
      const std::size_t e = fills ? empty - 1 : empty;
      if (completions(left, e) == 0) continue;
      group_of[item] = g;
      if (g < p_) ++group_sizes[g];
      // Fill the suffix with its lexicographically smallest valid completion.
      std::size_t empties_left = e;
      for (std::size_t i = item + 1; i < m_; ++i) {
        const std::size_t r = m_ - i - 1;
        for (std::size_t gg = 0; gg <= p_; ++gg) {
          const bool f = gg < p_ && group_sizes[gg] == 0;
          const std::size_t ee = f ? empties_left - 1 : empties_left;
          if (completions(r, ee) == 0) continue;
          group_of[i] = gg;
          if (gg < p_) ++group_sizes[gg];
          empties_left = ee;
          break;
        }
      }
      return true;
    }
  }
  return false;
}

AssignmentIndexer::AssignmentIndexer(std::size_t length, std::size_t symbols)
    : length_(length), symbols_(symbols), count_(1) {
  RELAP_ASSERT(length >= 1, "assignment words need at least one position");
  RELAP_ASSERT(symbols >= 1, "assignment words need at least one symbol");
  for (std::size_t k = 0; k < length; ++k) {
    count_ = sat_mul(count_, static_cast<std::uint64_t>(symbols));
  }
}

void AssignmentIndexer::unrank(std::uint64_t rank, std::span<std::size_t> word) const {
  RELAP_ASSERT(rank < count_, "assignment rank out of range");
  for (std::size_t k = 0; k < length_; ++k) {
    word[k] = static_cast<std::size_t>(rank % symbols_);
    rank /= symbols_;
  }
}

std::uint64_t AssignmentIndexer::rank(std::span<const std::size_t> word) const {
  std::uint64_t value = 0;
  for (std::size_t k = length_; k-- > 0;) {
    value = value * symbols_ + static_cast<std::uint64_t>(word[k]);
  }
  return value;
}

bool AssignmentIndexer::next(std::span<std::size_t> word) const {
  for (std::size_t k = 0; k < length_; ++k) {
    if (word[k] + 1 < symbols_) {
      ++word[k];
      return true;
    }
    word[k] = 0;
  }
  return false;
}

InjectionIndexer::InjectionIndexer(std::size_t length, std::size_t symbols)
    : length_(length), symbols_(symbols), count_(1), weights_(length) {
  RELAP_ASSERT(length >= 1, "injections need at least one position");
  RELAP_ASSERT(length <= symbols, "injections need length <= symbols");
  // weights_[k] = fall(symbols-k-1, length-k-1), built right to left;
  // count_ = fall(symbols, length) extends the same product one more step.
  std::uint64_t fall = 1;
  for (std::size_t k = length; k-- > 0;) {
    weights_[k] = fall;
    fall = sat_mul(fall, static_cast<std::uint64_t>(symbols - k));
  }
  count_ = fall;
}

void InjectionIndexer::unrank(std::uint64_t rank, std::span<std::size_t> word,
                              std::vector<bool>& used) const {
  RELAP_ASSERT(rank < count_, "injection rank out of range");
  used.assign(symbols_, false);
  for (std::size_t k = 0; k < length_; ++k) {
    std::uint64_t choice = rank / weights_[k];
    rank %= weights_[k];
    for (std::size_t u = 0; u < symbols_; ++u) {
      if (used[u]) continue;
      if (choice == 0) {
        word[k] = u;
        used[u] = true;
        break;
      }
      --choice;
    }
  }
}

std::uint64_t InjectionIndexer::rank(std::span<const std::size_t> word) const {
  std::uint64_t value = 0;
  for (std::size_t k = 0; k < length_; ++k) {
    // The digit is word[k]'s position among the symbols unused by the prefix.
    std::uint64_t choice = 0;
    for (std::size_t j = 0; j < k; ++j) {
      if (word[j] < word[k]) ++choice;
    }
    value += (static_cast<std::uint64_t>(word[k]) - choice) * weights_[k];
  }
  return value;
}

bool InjectionIndexer::next(std::span<std::size_t> word, std::vector<bool>& used) const {
  for (std::size_t k = length_; k-- > 0;) {
    const std::size_t current = word[k];
    used[current] = false;
    for (std::size_t v = current + 1; v < symbols_; ++v) {
      if (used[v]) continue;
      word[k] = v;
      used[v] = true;
      // Fill the suffix with the smallest unused symbols, ascending.
      std::size_t next_free = 0;
      for (std::size_t j = k + 1; j < length_; ++j) {
        while (used[next_free]) ++next_free;
        word[j] = next_free;
        used[next_free] = true;
      }
      return true;
    }
  }
  return false;
}

}  // namespace relap::util
