#pragma once

/// \file engine.hpp
/// Discrete-event simulation of an interval mapping under the one-port
/// model with failure injection — the library's executable substitute for
/// the testbed the paper does not have (DESIGN.md §4).
///
/// Semantics, matching the cost model of Section 2:
///  * every resource (P_in, each processor, P_out) performs one operation at
///    a time; transfers occupy both endpoints for size/bandwidth time-units;
///  * the replicas of interval j receive their input through *serialized*
///    transfers from the previous interval's designated sender (or P_in);
///  * a replica computes its whole interval after its own receive completes;
///  * the designated sender of interval j is the earliest-completing replica
///    that is still alive (ties by processor id) — the paper's consensus
///    protocol [17]; it alone forwards the output;
///  * a processor that dies mid-operation wastes the operation: transfers it
///    was receiving are lost (the sender's time is still spent), computes
///    produce nothing; peers it would have received later are skipped once
///    it is known dead at the transfer's start;
///  * a data set fails when an interval has no surviving completed replica;
///    the application run fails when any data set fails.
///
/// Scheduling is greedy virtual-time FIFO: data sets are processed in order
/// on every resource. This is deterministic and matches the steady-state
/// assumptions behind Equations (1)/(2); with the worst-case failure
/// scenario and worst-case send order the simulated latency reproduces the
/// equations exactly (asserted by the engine tests and bench_simulation).
///
/// The engine runs on a caller-owned `SimScratch` arena, the simulation
/// counterpart of the enumerators' `mapping::LaneEvalBatch`: all mutable state
/// (per-processor avail/death/received-once arrays, the flattened receive
/// orders, the per-group receive-end workspace, a reusable failure-scenario
/// buffer) lives in flat buffers that are sized once by `bind()` and reused
/// across runs. After warm-up a `simulate_into` call performs **zero heap
/// allocations** (pinned by a counting-allocator test), which is what makes
/// high-volume Monte-Carlo trials cheap. `simulate()` is the convenience
/// wrapper that builds a throwaway scratch per call.

#include <cstdint>

#include "relap/mapping/interval_mapping.hpp"
#include "relap/pipeline/pipeline.hpp"
#include "relap/platform/platform.hpp"
#include "relap/sim/failure_model.hpp"
#include "relap/sim/trace.hpp"

namespace relap::sim {

/// Order in which a sender emits the serialized copies to the next group.
enum class SendOrder {
  ById,           ///< ascending processor id
  WorstCaseLast,  ///< the Eq. (2) worst-case survivor receives last
};

struct SimOptions {
  std::size_t dataset_count = 1;
  SendOrder send_order = SendOrder::ById;
  /// Optional operation log (not owned). The trace is appended to, never
  /// cleared, so one trace can span several runs; clear() between runs
  /// keeps its capacity (see trace.hpp).
  Trace* trace = nullptr;
};

struct DatasetOutcome {
  bool completed = false;
  /// Start of the data set's first input transfer from P_in.
  double injection_time = 0.0;
  /// Arrival time of the result at P_out; +infinity when failed.
  double completion_time = 0.0;

  [[nodiscard]] double latency() const { return completion_time - injection_time; }
};

struct SimResult {
  std::vector<DatasetOutcome> datasets;
  bool application_failed = false;
  /// Completion time of the last successful data set (0 if none).
  double makespan = 0.0;

  /// Largest latency over completed data sets (-infinity if none).
  [[nodiscard]] double worst_latency() const;
  /// Number of completed data sets.
  [[nodiscard]] std::size_t completed_count() const;
};

/// Caller-owned, reusable engine state. `bind()` sizes every buffer for one
/// (pipeline, platform, mapping, send-order) combination and precomputes the
/// per-interval receive orders; `simulate_into` then runs trial after trial
/// against the bound instance without allocating. Construct one per
/// Monte-Carlo worker chunk and rebind only when the mapping changes.
class SimScratch {
 public:
  SimScratch() = default;

  /// Reserves for platforms up to `processor_count` processors and mappings
  /// up to `interval_count` intervals ahead of the first `bind()`.
  SimScratch(std::size_t processor_count, std::size_t interval_count);

  /// Binds the scratch to an instance: sizes the engine state and rebuilds
  /// the flattened receive orders (ascending ids, or the Eq. (2) worst-case
  /// survivor rotated last). The only allocating step; rebinding to an
  /// instance of the same or smaller shape reuses capacity.
  void bind(const pipeline::Pipeline& pipeline, const platform::Platform& platform,
            const mapping::IntervalMapping& mapping, SendOrder send_order);

  /// Reusable failure-scenario buffer for sampling trials in place (see
  /// `FailureScenario::draw_into`); not touched by `simulate_into` unless
  /// passed as its scenario.
  [[nodiscard]] FailureScenario& scenario() { return scenario_; }

  [[nodiscard]] bool bound() const { return bound_; }
  [[nodiscard]] std::size_t processor_count() const { return processor_count_; }
  [[nodiscard]] std::size_t interval_count() const { return interval_count_; }
  [[nodiscard]] SendOrder send_order() const { return send_order_; }

 private:
  friend void simulate_into(SimScratch& scratch, const FailureScenario& scenario,
                            const SimOptions& options, SimResult& out);

  // Bound shape, asserted against by simulate_into.
  std::size_t processor_count_ = 0;
  std::size_t interval_count_ = 0;
  SendOrder send_order_ = SendOrder::ById;
  bool bound_ = false;

  /// Receive orders, flattened: interval j's order is
  /// order_[order_offsets_[j] .. order_offsets_[j+1]). `groups_` holds the
  /// same members in the mapping's canonical ascending-id order (the compute
  /// phase's iteration order); the two coincide except under WorstCaseLast.
  std::vector<platform::ProcessorId> order_;
  std::vector<platform::ProcessorId> groups_;
  std::vector<std::size_t> order_offsets_;

  // Trial-invariant cost terms, hoisted out of the per-trial loops the way
  // `mapping::CompositionCache` hoists the composition terms out of the
  // enumeration loop. Each cached double is exactly the value the engine
  // used to recompute per trial (same operands, same single division), so
  // caching cannot perturb a single bit.
  /// Transfer durations into interval j, one row per possible sender —
  /// row 0 is P_in for interval 0, row s is the s-th member (ascending id)
  /// of group j-1 otherwise — and one column per receive-order position:
  /// recv_duration_[recv_offsets_[j] + s * order_len(j) + r].
  std::vector<double> recv_duration_;
  std::vector<std::size_t> recv_offsets_;
  /// Compute time work_j / speed_v per enrolled processor id (groups are
  /// disjoint, so one array covers all intervals).
  std::vector<double> compute_duration_;
  /// Final-output transfer duration delta_n / bandwidth_out per member of
  /// the last group (by processor id; other entries unused).
  std::vector<double> out_duration_;

  // Engine state, reset at the start of every run.
  std::vector<double> avail_;   ///< next-free time per processor
  std::vector<double> death_;   ///< resolved death time per processor
  /// For fail_after_first_receive resolution. A byte array, not
  /// std::vector<bool>: the innermost transfer loop reads and writes it and
  /// the proxy-reference bit twiddling costs more than the 8x storage.
  std::vector<std::uint8_t> received_once_;
  /// Per-interval receive-completion workspace, indexed by processor id;
  /// only the current group's entries are live (reset per interval).
  std::vector<double> receive_end_;

  FailureScenario scenario_;
};

/// Runs the simulation against the instance `scratch` is bound to, writing
/// into `out` (whose buffers are reused across calls). Zero heap allocations
/// after warm-up. The bound instance is the single source of truth — there
/// is no way to pass a mapping that disagrees with the cached state.
/// Preconditions (asserted): `scratch` is bound with `options.send_order`;
/// the scenario matches the bound platform's processor count.
void simulate_into(SimScratch& scratch, const FailureScenario& scenario,
                   const SimOptions& options, SimResult& out);

/// Convenience wrapper over `simulate_into` with a throwaway scratch; the
/// entry point for one-off runs (tests, examples, the worst-case validation
/// tables). High-volume callers should own a `SimScratch` instead.
[[nodiscard]] SimResult simulate(const pipeline::Pipeline& pipeline,
                                 const platform::Platform& platform,
                                 const mapping::IntervalMapping& mapping,
                                 const FailureScenario& scenario, const SimOptions& options = {});

}  // namespace relap::sim
