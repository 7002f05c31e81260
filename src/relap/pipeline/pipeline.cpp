#include "relap/pipeline/pipeline.hpp"

#include <algorithm>
#include <cmath>

#include "relap/util/assert.hpp"
#include "relap/util/strings.hpp"

namespace relap::pipeline {

namespace {

bool finite_non_negative(std::span<const double> values) {
  return std::all_of(values.begin(), values.end(),
                     [](double v) { return std::isfinite(v) && v >= 0.0; });
}

}  // namespace

std::optional<util::Error> Pipeline::check(std::span<const double> work,
                                           std::span<const double> data) {
  using util::malformed;
  if (work.empty()) return malformed("pipeline needs at least one stage");
  if (data.size() != work.size() + 1) {
    return malformed("need exactly n+1 data sizes delta_0..delta_n for n stages");
  }
  if (!finite_non_negative(work)) return malformed("stage work must be finite and >= 0");
  if (!finite_non_negative(data)) return malformed("data sizes must be finite and >= 0");
  return std::nullopt;
}

Pipeline::Pipeline(std::vector<double> work, std::vector<double> data)
    : work_(std::move(work)), data_(std::move(data)) {
  const std::optional<util::Error> violation = check(work_, data_);
  RELAP_ASSERT(!violation, violation->message);
  work_prefix_.resize(work_.size() + 1, 0.0);
  for (std::size_t k = 0; k < work_.size(); ++k) {
    work_prefix_[k + 1] = work_prefix_[k] + work_[k];
  }
}

double Pipeline::work(std::size_t stage) const {
  RELAP_ASSERT(stage < work_.size(), "stage index out of range");
  return work_[stage];
}

double Pipeline::data(std::size_t boundary) const {
  RELAP_ASSERT(boundary < data_.size(), "data boundary index out of range");
  return data_[boundary];
}

double Pipeline::work_sum(std::size_t first, std::size_t last) const {
  RELAP_ASSERT(first <= last, "work_sum requires first <= last");
  RELAP_ASSERT(last < work_.size(), "work_sum range out of bounds");
  return work_prefix_[last + 1] - work_prefix_[first];
}

Pipeline Pipeline::uniform(std::size_t n, double w, double delta) {
  return Pipeline(std::vector<double>(n, w), std::vector<double>(n + 1, delta));
}

std::string Pipeline::describe() const {
  std::string out = "pipeline n=" + std::to_string(stage_count()) + " w=[";
  for (std::size_t k = 0; k < work_.size(); ++k) {
    if (k > 0) out += ' ';
    out += util::format_double(work_[k]);
  }
  out += "] delta=[";
  for (std::size_t k = 0; k < data_.size(); ++k) {
    if (k > 0) out += ' ';
    out += util::format_double(data_[k]);
  }
  out += ']';
  return out;
}

}  // namespace relap::pipeline
