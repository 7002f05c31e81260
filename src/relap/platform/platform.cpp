#include "relap/platform/platform.hpp"

#include <algorithm>
#include <cmath>

#include "relap/util/assert.hpp"
#include "relap/util/strings.hpp"

namespace relap::platform {

namespace {

void check_positive_finite(std::span<const double> values, const char* what) {
  for (const double v : values) {
    RELAP_ASSERT(std::isfinite(v) && v > 0.0, what);
  }
}

/// True iff all off-diagonal link bandwidths (row-major m-by-m `link`) and
/// all in/out bandwidths share one common value. The paper's Communication
/// Homogeneous class assumes "identical links"; equations (1) use the same b
/// for the in/out transfers, so the special links must match too.
bool links_identical(std::span<const double> link, std::span<const double> in,
                     std::span<const double> out) {
  const double b = in.front();
  const std::size_t m = in.size();
  for (std::size_t u = 0; u < m; ++u) {
    if (in[u] != b || out[u] != b) return false;
    for (std::size_t v = 0; v < m; ++v) {
      if (u != v && link[u * m + v] != b) return false;
    }
  }
  return true;
}

}  // namespace

std::string to_string(CommClass c) {
  switch (c) {
    case CommClass::FullyHomogeneous: return "FullyHomogeneous";
    case CommClass::CommHomogeneous: return "CommHomogeneous";
    case CommClass::FullyHeterogeneous: return "FullyHeterogeneous";
  }
  RELAP_UNREACHABLE("invalid CommClass");
}

std::string to_string(FailureClass c) {
  switch (c) {
    case FailureClass::Homogeneous: return "FailureHomogeneous";
    case FailureClass::Heterogeneous: return "FailureHeterogeneous";
  }
  RELAP_UNREACHABLE("invalid FailureClass");
}

Platform::Platform(std::vector<double> speeds, std::vector<double> failure_probs,
                   const std::vector<std::vector<double>>& link_bandwidth,
                   std::vector<double> in_bandwidth, std::vector<double> out_bandwidth)
    : speeds_(std::move(speeds)),
      failure_probs_(std::move(failure_probs)),
      in_bandwidth_(std::move(in_bandwidth)),
      out_bandwidth_(std::move(out_bandwidth)),
      comm_class_(CommClass::FullyHeterogeneous),
      failure_class_(FailureClass::Heterogeneous) {
  const std::size_t m = speeds_.size();
  RELAP_ASSERT(m >= 1, "platform needs at least one processor");
  RELAP_ASSERT(failure_probs_.size() == m, "need one failure probability per processor");
  RELAP_ASSERT(link_bandwidth.size() == m, "link bandwidth matrix must be m-by-m");
  for (const auto& row : link_bandwidth) {
    RELAP_ASSERT(row.size() == m, "link bandwidth matrix must be m-by-m");
  }
  RELAP_ASSERT(in_bandwidth_.size() == m, "need one P_in bandwidth per processor");
  RELAP_ASSERT(out_bandwidth_.size() == m, "need one P_out bandwidth per processor");

  check_positive_finite(speeds_, "processor speeds must be finite and > 0");
  check_positive_finite(in_bandwidth_, "P_in bandwidths must be finite and > 0");
  check_positive_finite(out_bandwidth_, "P_out bandwidths must be finite and > 0");
  for (std::size_t u = 0; u < m; ++u) {
    for (std::size_t v = 0; v < m; ++v) {
      if (u == v) continue;
      RELAP_ASSERT(std::isfinite(link_bandwidth[u][v]) && link_bandwidth[u][v] > 0.0,
                   "link bandwidths must be finite and > 0");
    }
  }
  for (const double fp : failure_probs_) {
    RELAP_ASSERT(std::isfinite(fp) && fp >= 0.0 && fp <= 1.0,
                 "failure probabilities must lie in [0, 1]");
  }

  flat_bandwidth_.resize(m * m);
  for (std::size_t u = 0; u < m; ++u) {
    for (std::size_t v = 0; v < m; ++v) {
      flat_bandwidth_[u * m + v] = u == v ? 1.0 : link_bandwidth[u][v];
    }
  }

  // Reciprocal tables for the latency evaluators: one rounded 1/x per entry,
  // shared by the scalar oracle and the lane kernels so both multiply by the
  // *same* double and stay bit-identical to each other.
  inv_speeds_.resize(m);
  inv_in_bandwidth_.resize(m);
  inv_out_bandwidth_.resize(m);
  flat_inv_bandwidth_.resize(m * m);
  for (std::size_t u = 0; u < m; ++u) {
    inv_speeds_[u] = 1.0 / speeds_[u];
    inv_in_bandwidth_[u] = 1.0 / in_bandwidth_[u];
    inv_out_bandwidth_[u] = 1.0 / out_bandwidth_[u];
    for (std::size_t v = 0; v < m; ++v) {
      flat_inv_bandwidth_[u * m + v] = 1.0 / flat_bandwidth_[u * m + v];
    }
  }

  const bool comm_hom = links_identical(flat_bandwidth_, in_bandwidth_, out_bandwidth_);
  const bool speed_hom =
      std::all_of(speeds_.begin(), speeds_.end(), [&](double s) { return s == speeds_.front(); });
  if (comm_hom) {
    comm_class_ = speed_hom ? CommClass::FullyHomogeneous : CommClass::CommHomogeneous;
  }
  const bool fail_hom = std::all_of(failure_probs_.begin(), failure_probs_.end(),
                                    [&](double f) { return f == failure_probs_.front(); });
  failure_class_ = fail_hom ? FailureClass::Homogeneous : FailureClass::Heterogeneous;
}

double Platform::speed(ProcessorId u) const {
  RELAP_ASSERT(u < speeds_.size(), "processor id out of range");
  return speeds_[u];
}

double Platform::failure_prob(ProcessorId u) const {
  RELAP_ASSERT(u < failure_probs_.size(), "processor id out of range");
  return failure_probs_[u];
}

double Platform::bandwidth(ProcessorId u, ProcessorId v) const {
  RELAP_ASSERT(u < speeds_.size() && v < speeds_.size(), "processor id out of range");
  RELAP_ASSERT(u != v, "intra-processor bandwidth is undefined (communication is free)");
  return flat_bandwidth_[u * speeds_.size() + v];
}

double Platform::bandwidth_in(ProcessorId u) const {
  RELAP_ASSERT(u < speeds_.size(), "processor id out of range");
  return in_bandwidth_[u];
}

double Platform::bandwidth_out(ProcessorId u) const {
  RELAP_ASSERT(u < speeds_.size(), "processor id out of range");
  return out_bandwidth_[u];
}

double Platform::common_bandwidth() const {
  RELAP_ASSERT(has_homogeneous_links(), "common_bandwidth requires homogeneous links");
  return in_bandwidth_.front();
}

double Platform::inv_common_bandwidth() const {
  RELAP_ASSERT(has_homogeneous_links(), "inv_common_bandwidth requires homogeneous links");
  return inv_in_bandwidth_.front();
}

double Platform::common_failure_prob() const {
  RELAP_ASSERT(is_failure_homogeneous(), "common_failure_prob requires homogeneous failures");
  return failure_probs_.front();
}

ProcessorId Platform::fastest_processor() const {
  ProcessorId best = 0;
  for (ProcessorId u = 1; u < speeds_.size(); ++u) {
    if (speeds_[u] > speeds_[best]) best = u;
  }
  return best;
}

std::vector<ProcessorId> Platform::by_speed_desc() const {
  std::vector<ProcessorId> ids(processor_count());
  for (std::size_t u = 0; u < ids.size(); ++u) ids[u] = u;
  std::stable_sort(ids.begin(), ids.end(),
                   [&](ProcessorId a, ProcessorId b) { return speeds_[a] > speeds_[b]; });
  return ids;
}

std::vector<ProcessorId> Platform::by_reliability() const {
  std::vector<ProcessorId> ids(processor_count());
  for (std::size_t u = 0; u < ids.size(); ++u) ids[u] = u;
  std::stable_sort(ids.begin(), ids.end(), [&](ProcessorId a, ProcessorId b) {
    return failure_probs_[a] < failure_probs_[b];
  });
  return ids;
}

std::string Platform::describe() const {
  std::string out = "platform m=" + std::to_string(processor_count()) + " [" +
                    to_string(comm_class_) + ", " + to_string(failure_class_) + "] s=[";
  for (std::size_t u = 0; u < speeds_.size(); ++u) {
    if (u > 0) out += ' ';
    out += util::format_double(speeds_[u]);
  }
  out += "] fp=[";
  for (std::size_t u = 0; u < failure_probs_.size(); ++u) {
    if (u > 0) out += ' ';
    out += util::format_double(failure_probs_[u]);
  }
  out += ']';
  return out;
}

}  // namespace relap::platform
