#pragma once

/// \file stats.hpp
/// Order statistics and output helpers shared by the end-to-end run and the
/// traced ledger.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace servebench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Nearest-rank percentile (q in (0, 1]); 0 for an empty sample.
inline double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

inline double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double total = 0.0;
  for (const double v : values) total += v;
  return total / static_cast<double>(values.size());
}

/// One named metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// True iff every value is finite; a run with a non-finite metric is not
/// correct.
inline bool all_finite(const std::vector<Metric>& metrics) {
  return std::all_of(metrics.begin(), metrics.end(),
                     [](const Metric& m) { return std::isfinite(m.value); });
}

/// `{"name": {"value": v, "unit": "u"}, ...}` with every digit of each value;
/// a non-finite value is written as `null`.
inline std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[40] = "null";
    if (std::isfinite(metrics[i].value)) {
      std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    }
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  return out + "}";
}

}  // namespace servebench
