#pragma once

/// \file platform.hpp
/// The target platform model (paper Figure 2).
///
/// A platform is a set of m processors P_u fully interconnected as a virtual
/// clique, plus two special processors P_in (holds the initial data) and
/// P_out (receives the final results). Each processor has a speed s_u
/// (work-units per time-unit) and a failure probability fp_u in [0, 1] — the
/// probability that P_u breaks down at some point during the (long-running)
/// execution of the workflow. Each ordered processor pair (u, v) has a link
/// of bandwidth b_{u,v}; P_in/P_out are connected to every processor through
/// dedicated links of bandwidths b_{in,u} and b_{u,out}.
///
/// The paper distinguishes platform classes along two independent axes:
///  * communication: Fully Homogeneous (identical speeds *and* identical
///    links), Communication Homogeneous (identical links, arbitrary speeds),
///    Fully Heterogeneous (arbitrary links);
///  * failure: Failure Homogeneous (identical fp_u) vs Failure Heterogeneous.
///
/// `Platform` stores the most general (fully heterogeneous) description and
/// classifies itself; the polynomial algorithms assert the class they need.

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "relap/util/expected.hpp"

namespace relap::platform {

/// Index of a processor within a platform: 0 <= u < processor_count().
using ProcessorId = std::size_t;

/// Communication-axis classification (paper Section 2.1).
enum class CommClass {
  FullyHomogeneous,     ///< identical speeds and identical links
  CommHomogeneous,      ///< identical links, heterogeneous speeds
  FullyHeterogeneous,   ///< heterogeneous links
};

/// Failure-axis classification (paper Section 2.1).
enum class FailureClass {
  Homogeneous,    ///< identical failure probabilities
  Heterogeneous,  ///< per-processor failure probabilities
};

[[nodiscard]] std::string to_string(CommClass c);
[[nodiscard]] std::string to_string(FailureClass c);

/// Immutable platform description.
class Platform {
 public:
  /// Fully general constructor. Asserts that `check` passes on the same
  /// arguments.
  Platform(std::vector<double> speeds, std::vector<double> failure_probs,
           const std::vector<std::vector<double>>& link_bandwidth,
           std::vector<double> in_bandwidth, std::vector<double> out_bandwidth);

  /// The platform invariants: all vectors sized `m = speeds.size() >= 1`;
  /// `link_bandwidth` is an m-by-m matrix whose diagonal is ignored
  /// (intra-processor transfers are free); speeds and bandwidths are finite
  /// and strictly positive, with finite reciprocals (no subnormals below
  /// 1/DBL_MAX); failure probabilities lie in [0, 1]. Returns the
  /// first violation as a "malformed" error, so readers of untrusted input
  /// can report what the constructor would assert on.
  [[nodiscard]] static std::optional<util::Error> check(
      std::span<const double> speeds, std::span<const double> failure_probs,
      const std::vector<std::vector<double>>& link_bandwidth,
      std::span<const double> in_bandwidth, std::span<const double> out_bandwidth);

  /// Number of processors m (excluding P_in / P_out).
  [[nodiscard]] std::size_t processor_count() const { return speeds_.size(); }

  /// Speed s_u: work-units per time-unit.
  [[nodiscard]] double speed(ProcessorId u) const;

  /// Failure probability fp_u in [0, 1].
  [[nodiscard]] double failure_prob(ProcessorId u) const;

  /// Bandwidth b_{u,v} of the link between distinct processors u and v.
  /// Precondition: u != v (intra-processor communication costs nothing and
  /// must be short-circuited by the caller, as the latency evaluators do).
  [[nodiscard]] double bandwidth(ProcessorId u, ProcessorId v) const;

  /// Bandwidth b_{in,u} of the link P_in -> P_u.
  [[nodiscard]] double bandwidth_in(ProcessorId u) const;

  /// Bandwidth b_{u,out} of the link P_u -> P_out.
  [[nodiscard]] double bandwidth_out(ProcessorId u) const;

  [[nodiscard]] CommClass comm_class() const { return comm_class_; }
  [[nodiscard]] FailureClass failure_class() const { return failure_class_; }

  [[nodiscard]] bool is_fully_homogeneous() const {
    return comm_class_ == CommClass::FullyHomogeneous;
  }
  /// True for Fully Homogeneous as well: identical links are what matters.
  [[nodiscard]] bool has_homogeneous_links() const {
    return comm_class_ != CommClass::FullyHeterogeneous;
  }
  [[nodiscard]] bool is_failure_homogeneous() const {
    return failure_class_ == FailureClass::Homogeneous;
  }

  /// The common link bandwidth b. Precondition: `has_homogeneous_links()`.
  [[nodiscard]] double common_bandwidth() const;

  /// The rounded reciprocal 1/b of the common link bandwidth, shared by every
  /// latency evaluator (see the reciprocal-table comment below).
  /// Precondition: `has_homogeneous_links()`.
  [[nodiscard]] double inv_common_bandwidth() const;

  /// The common failure probability. Precondition: `is_failure_homogeneous()`.
  [[nodiscard]] double common_failure_prob() const;

  /// A processor of maximal speed (smallest id among ties).
  [[nodiscard]] ProcessorId fastest_processor() const;

  /// Processor ids sorted by non-increasing speed (ties by id).
  [[nodiscard]] std::vector<ProcessorId> by_speed_desc() const;

  /// Processor ids sorted by non-decreasing failure probability (most
  /// reliable first; ties by id).
  [[nodiscard]] std::vector<ProcessorId> by_reliability() const;

  [[nodiscard]] std::span<const double> speeds() const { return speeds_; }
  [[nodiscard]] std::span<const double> failure_probs() const { return failure_probs_; }
  [[nodiscard]] std::span<const double> in_bandwidths() const { return in_bandwidth_; }
  [[nodiscard]] std::span<const double> out_bandwidths() const { return out_bandwidth_; }

  /// Reciprocal tables: entry-wise rounded 1/x of the speed and bandwidth
  /// tables, precomputed once at construction. The latency evaluators
  /// multiply by these instead of dividing — a division-throughput
  /// optimisation — and because the scalar oracle and the lane kernels read
  /// the *same* rounded reciprocals, their results stay bit-identical to each
  /// other (each latency term differs from the division form by at most one
  /// extra rounding). `flat_inv_link_bandwidths()` is row-major m-by-m, entry
  /// [u * m + v] = 1/b_{u,v}; its diagonal holds a harmless 1.0 so a
  /// masked-out lane whose stale indices collide can still gather in bounds.
  [[nodiscard]] std::span<const double> inv_speeds() const { return inv_speeds_; }
  [[nodiscard]] std::span<const double> inv_in_bandwidths() const { return inv_in_bandwidth_; }
  [[nodiscard]] std::span<const double> inv_out_bandwidths() const { return inv_out_bandwidth_; }
  [[nodiscard]] std::span<const double> flat_inv_link_bandwidths() const {
    return flat_inv_bandwidth_;
  }

  /// Scalar accessors over the reciprocal tables (same preconditions as the
  /// corresponding bandwidth/speed accessors).
  [[nodiscard]] double inv_speed(ProcessorId u) const { return inv_speeds_[u]; }
  [[nodiscard]] double inv_bandwidth(ProcessorId u, ProcessorId v) const {
    return flat_inv_bandwidth_[u * processor_count() + v];
  }
  [[nodiscard]] double inv_bandwidth_in(ProcessorId u) const { return inv_in_bandwidth_[u]; }
  [[nodiscard]] double inv_bandwidth_out(ProcessorId u) const { return inv_out_bandwidth_[u]; }

  /// One-line human-readable description.
  [[nodiscard]] std::string describe() const;

 private:
  std::vector<double> speeds_;
  std::vector<double> failure_probs_;
  std::vector<double> in_bandwidth_;
  std::vector<double> out_bandwidth_;
  std::vector<double> flat_bandwidth_;  // row-major m*m; diagonal = 1.0
  std::vector<double> inv_speeds_;          // 1/s_u
  std::vector<double> inv_in_bandwidth_;    // 1/b_{in,u}
  std::vector<double> inv_out_bandwidth_;   // 1/b_{u,out}
  std::vector<double> flat_inv_bandwidth_;  // row-major m*m 1/b_{u,v}; diagonal = 1.0
  CommClass comm_class_;
  FailureClass failure_class_;
};

}  // namespace relap::platform
