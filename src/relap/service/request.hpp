#pragma once

/// \file request.hpp
/// Request/response types of the solver service (see broker.hpp for the
/// serving loop that consumes them).
///
/// A `SolveRequest` wraps one *instance presentation* plus an objective,
/// scheduling metadata (priority, deadline) and a per-request evaluation
/// budget. The instance is carried as raw labeled records (`InstanceData`)
/// rather than constructed `Pipeline`/`Platform` objects on purpose: those
/// constructors treat malformed input as a programming error and abort,
/// while a multi-tenant broker must reject malformed requests gracefully
/// with a structured `util::Expected` error. Validation happens inside
/// `service::canonicalize` before any library type is constructed.
///
/// Labeling model: a stage record carries its semantic pipeline `position`
/// (stage order is meaningful — a pipeline is a chain), so stage records may
/// arrive in any storage order. Processor records have no semantic order at
/// all; their storage index *is* their caller-visible label, and replica
/// groups in a `Reply` use those indices. Two presentations of the same
/// instance that differ only by record order (and/or an exact power-of-two
/// unit rescaling) canonicalize to bit-identical canonical forms — the
/// property the broker's memo cache keys on.

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "relap/algorithms/solve.hpp"

namespace relap::service {

/// One pipeline stage as presented by a caller.
struct LabeledStage {
  /// Semantic position in the chain: 0-based, must form a permutation of
  /// 0..n-1 across the request's records.
  std::size_t position = 0;
  /// Computation amount w of the stage.
  double work = 0.0;
  /// Size of the data the stage writes (delta_{position+1}).
  double output_data = 0.0;
};

/// One processor as presented by a caller. The record's index in
/// `InstanceData::processors` is the caller-visible processor label.
struct LabeledProcessor {
  double speed = 0.0;
  double failure_prob = 0.0;
  double in_bandwidth = 0.0;   ///< link from P_in
  double out_bandwidth = 0.0;  ///< link to P_out
  /// links[j]: bandwidth to the processor stored at index j (same storage
  /// order as `InstanceData::processors`); links[self] is ignored.
  std::vector<double> links;
};

/// A raw, unvalidated instance presentation.
struct InstanceData {
  /// Size of the external input delta_0 (read by the position-0 stage).
  double input_data = 0.0;
  std::vector<LabeledStage> stages;
  std::vector<LabeledProcessor> processors;

  /// Presentation of an already-validated library instance (stage records in
  /// position order, processor records in platform id order).
  [[nodiscard]] static InstanceData from(const pipeline::Pipeline& pipeline,
                                         const platform::Platform& platform);

  /// The same instance with records shuffled: the record stored at index i of
  /// the result is this instance's record `stage_order[i]` /
  /// `processor_order[i]` (link columns reindexed to match). Both arguments
  /// must be permutations. Semantics are unchanged — stage positions travel
  /// with their records, and processor identity follows the record.
  [[nodiscard]] InstanceData relabeled(std::span<const std::size_t> stage_order,
                                       std::span<const std::size_t> processor_order) const;

  /// The same problem expressed in different units: work values scale by
  /// `work_factor`, data values by `data_factor`, and the clock by
  /// `time_factor` (speeds scale by work_factor * time_factor, bandwidths by
  /// data_factor * time_factor; latencies of the scaled instance equal the
  /// original's divided by time_factor). For exact power-of-two factors the
  /// transformation is bit-exact and the scaled instance canonicalizes to
  /// the same canonical form as the original.
  [[nodiscard]] InstanceData scaled(double work_factor, double data_factor,
                                    double time_factor) const;
};

/// What the caller wants solved.
enum class Objective {
  MinFpForLatency,   ///< minimize FP subject to latency <= threshold
  MinLatencyForFp,   ///< minimize latency subject to FP <= threshold
  ParetoFront,       ///< the full latency/FP front (threshold ignored)
};

[[nodiscard]] std::string to_string(Objective objective);

/// Everything a request asks for besides its instance. Admission reads the
/// instance once; from then on the broker carries only these knobs.
struct SolveKnobs {
  Objective objective = Objective::MinFpForLatency;
  /// Latency cap (caller units) or FP cap, per the objective.
  double threshold = 0.0;
  /// Scheduling priority: higher values are dispatched earlier in a batch.
  int priority = 0;
  /// Wall-clock budget in **seconds**, measured from the moment the request
  /// enters the queue, right after its admission on the caller's thread (or
  /// from dispatch for a direct `solve` and for a `solve_batched` cache hit,
  /// which never queues). Besides ordering requests within a
  /// priority level (tighter first), the deadline is enforced: a request
  /// whose budget is already spent when its batch dispatches is rejected
  /// with code "deadline-exceeded" (deadline 0 deterministically expires),
  /// and a running solve is cooperatively cancelled once the loosest
  /// deadline in its dedup group passes. Cancellation never alters a result:
  /// a cancelled solve is an error and its partial work is discarded, so
  /// every *completed* reply keeps the bit-identical determinism contract.
  /// +inf (the default) means no deadline; NaN and negative values are
  /// rejected at admission with code "malformed".
  double deadline = std::numeric_limits<double>::infinity();
  /// Solver selection, as in algorithms::SolveOptions.
  algorithms::Method method = algorithms::Method::Auto;
  /// Per-request evaluation budget: both the auto exhaustive/heuristic
  /// switch point and the exhaustive enumeration cap. Oversized exhaustive
  /// requests fail fast with a "budget" error (the upfront saturation-aware
  /// count decision in exhaustive.hpp) instead of burning the budget.
  std::uint64_t max_evaluations = 2'000'000;
  /// Threshold count for heuristic ParetoFront sweeps (>= 2).
  std::size_t pareto_thresholds = 24;
};

struct PreparedInstance;  // canonical.hpp

/// One unit of work for the broker.
struct SolveRequest : SolveKnobs {
  InstanceData instance;
  /// The instance already prepared by the serving broker's `prepare` (a
  /// session prepares each upload once and shares it with every solve that
  /// names it). When set, admission reads it and ignores `instance`.
  std::shared_ptr<const PreparedInstance> prepared;
};

/// Wall-clock breakdown of one request's trip through the broker — the
/// per-request twin of the aggregate histograms in metrics.hpp. All values
/// are seconds; spans that did not occur (queue wait on a direct `solve` or
/// on a `solve_batched` hit, which never queues; solve on a cache hit) are 0.
struct TraceSpans {
  double queue_wait_seconds = 0.0;    ///< submit() -> batch dispatch
  /// Admission: caps, knobs and the full cache key, plus canonicalization
  /// when the request carries raw records (a session's solve reuses the
  /// form its upload prepared).
  double canonicalize_seconds = 0.0;
  double cache_probe_seconds = 0.0;   ///< memo-cache lookup
  double solve_seconds = 0.0;         ///< solver dispatch (0 on hits)
  double denormalize_seconds = 0.0;   ///< reply construction

  /// One-line JSON object, e.g. {"queue_wait_s":0,"canonicalize_s":1e-06,...}.
  [[nodiscard]] std::string to_json() const;
};

/// A successful reply. Error replies (malformed / oversized / infeasible /
/// budget) travel as `util::Expected` errors instead.
struct Reply {
  /// Non-dominated solutions sorted by increasing latency, in the caller's
  /// labeling and units. Single-objective requests carry exactly one point.
  std::vector<algorithms::ParetoSolution> front;
  /// Provenance: algorithm that produced the front and whether it is exact.
  std::string algorithm;
  bool exact = false;
  /// True iff the front came out of the solved-front memo cache.
  bool cache_hit = false;
  /// True iff this reply was served by the degrade path: the exact solve ran
  /// out of deadline and the broker (configured with `degrade_on_deadline`)
  /// answered with a fast heuristic front instead. Degraded fronts always
  /// carry `exact == false` and are never cached.
  bool degraded = false;
  /// Wall seconds spent solving (~0 for cache hits).
  double solve_seconds = 0.0;
  /// FNV-1a hash of the canonical instance form — equal across relabelings
  /// and power-of-two rescalings of the same instance.
  std::uint64_t canonical_hash = 0;
  /// Wall-clock trace of this request's lifecycle spans (solve_seconds
  /// above equals spans.solve_seconds; it predates the trace and stays for
  /// compatibility).
  TraceSpans spans;

  /// The single solution of a single-objective reply.
  [[nodiscard]] const algorithms::ParetoSolution& best() const { return front.front(); }
};

/// Label-independent FNV-1a fingerprint of a front: size, then per point the
/// latency/FP bit patterns, interval boundaries and replica-group sizes.
/// Deliberately excludes processor ids, so the checksum is identical across
/// relabeled presentations of the same instance; warm-vs-cold bit-identity
/// of the full mapping (ids included) is pinned by equality tests instead.
[[nodiscard]] std::uint64_t front_checksum(std::span<const algorithms::ParetoSolution> front);

}  // namespace relap::service
