#pragma once

/// \file pipeline.hpp
/// The application model: a linear pipeline workflow (paper Figure 1).
///
/// A pipeline has n stages S_1..S_n. Stage S_k reads an input of size
/// delta_{k-1} from its predecessor, performs w_k units of computation and
/// writes an output of size delta_k. delta_0 is the size of the external
/// input (read from P_in), delta_n the size of the final result (written to
/// P_out). Consecutive data sets are fed into the pipeline; every data set
/// traverses all stages in order.
///
/// Indexing convention: this library is 0-based. Stage k (0 <= k < n)
/// corresponds to the paper's S_{k+1}; `input_size(k)` is the paper's
/// delta_k (the data flowing *into* stage k), `output_size(k)` is
/// delta_{k+1}.

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "relap/util/expected.hpp"

namespace relap::pipeline {

/// Immutable pipeline workflow description.
class Pipeline {
 public:
  /// Builds a pipeline from per-stage work amounts and the n+1 data sizes
  /// delta_0..delta_n. Asserts that `check(work, data)` passes.
  Pipeline(std::vector<double> work, std::vector<double> data);

  /// The pipeline invariants: `work` non-empty, `data.size() ==
  /// work.size() + 1`, all values finite and non-negative. Returns the first
  /// violation as a "malformed" error, so readers of untrusted input can
  /// report what the constructor would assert on.
  [[nodiscard]] static std::optional<util::Error> check(std::span<const double> work,
                                                        std::span<const double> data);

  /// Number of stages n.
  [[nodiscard]] std::size_t stage_count() const { return work_.size(); }

  /// Computation amount w_{k+1} of stage k (0-based).
  [[nodiscard]] double work(std::size_t stage) const;

  /// delta_k for k in [0, n]: data size flowing between stage k-1 and k
  /// (k = 0 is the external input, k = n the external output).
  [[nodiscard]] double data(std::size_t boundary) const;

  /// Size of the data read by stage k: delta_k.
  [[nodiscard]] double input_size(std::size_t stage) const { return data(stage); }

  /// Size of the data written by stage k: delta_{k+1}.
  [[nodiscard]] double output_size(std::size_t stage) const { return data(stage + 1); }

  /// Sum of w over the stage interval [first, last] (inclusive, 0-based).
  /// Precondition: first <= last < stage_count(). O(1) via prefix sums.
  [[nodiscard]] double work_sum(std::size_t first, std::size_t last) const;

  /// Total computation of the whole pipeline.
  [[nodiscard]] double total_work() const { return work_sum(0, stage_count() - 1); }

  [[nodiscard]] std::span<const double> work_vector() const { return work_; }
  [[nodiscard]] std::span<const double> data_vector() const { return data_; }

  /// A pipeline with n stages of identical work `w` and identical data sizes
  /// `delta` on every boundary (including input/output).
  [[nodiscard]] static Pipeline uniform(std::size_t n, double w, double delta);

  /// One-line human-readable description.
  [[nodiscard]] std::string describe() const;

  friend bool operator==(const Pipeline&, const Pipeline&) = default;

 private:
  std::vector<double> work_;        // size n
  std::vector<double> data_;        // size n+1
  std::vector<double> work_prefix_; // size n+1, work_prefix_[k] = sum of first k works
};

}  // namespace relap::pipeline
