#pragma once

/// \file broker.hpp
/// The solver service: a long-lived, multi-tenant broker over the relap
/// solver stack.
///
/// Request lifecycle:
///
///   1. **Admission.** Structural caps (`max_stages`/`max_processors`) reject
///      oversized instances with code "oversized"; nonsense scheduling or
///      solver parameters reject with "malformed". No library type is
///      constructed yet, so malformed requests can never trip an assert.
///      The order is fixed: a spent deadline (checked at dispatch), then
///      "oversized", then the knobs ("malformed"/"infeasible"), then the
///      instance's own "malformed".
///   2. **Canonicalization** (canonical.hpp): validation, stage ordering,
///      exact power-of-two scale normalization and deterministic processor
///      relabeling. The broker *always* solves the canonical form — that is
///      what makes a warm reply bit-identical to a cold one under any
///      relabeling: both are the same denormalization of the same canonical
///      front.
///   3. **Cache probe** (cache.hpp). The key is the canonical instance bytes
///      plus the objective, method, normalized threshold and budget knobs —
///      everything that can change the solved front.
///   4. **Solve on miss** via the algorithms facade (`solve_min_fp_for_latency`,
///      `solve_min_latency_for_fp` or `solve_pareto_front`), on the broker's
///      deterministic pool, honoring the request's evaluation budget.
///      Infeasible / over-budget outcomes propagate as structured errors and
///      are *not* cached (they are cheap to re-derive and an error cached
///      under a budget would shadow a later, larger-budget success... the
///      budget is part of the key, but infeasibility is kept symmetric).
///   5. **Denormalization** back to the caller's labeling and units.
///
/// Every lifecycle step is measured twice: per request into `Reply::spans`
/// (request.hpp trace spans) and in aggregate into the broker's
/// `ServiceMetrics` registry (metrics.hpp, exported by `metrics_json`).
/// `save_snapshot`/`load_snapshot` persist the memo cache across process
/// runs (snapshot.hpp), so a restarted broker serves warm-from-snapshot
/// replies bit-identical to same-process warm replies. `recover` adds the
/// write-ahead journal (journal.hpp) on top: every cache-miss solve appends
/// one group-committed record, snapshot saves compact the journal away, and
/// a crashed process restarts with snapshot + journal replay — losing at
/// most the last `fsync_every - 1` solves.
///
/// Batches (`solve_batch`, or `submit` + `drain`) additionally dedupe: member
/// requests with equal full keys form one group, groups are ordered by
/// (priority desc, deadline asc, arrival), and only each group's lead solves;
/// the other members re-probe the cache and count as hits. Group dispatch
/// rides the same deterministic exec pool the solvers use — nested `run()` is
/// explicitly safe there.
///
/// Overload hardening (all failure modes are structured errors, never
/// asserts or hangs):
///
///   - **Deadlines are wall-clock budgets** (seconds from submit; see
///     request.hpp). A request whose budget is spent when its batch
///     dispatches rejects with "deadline-exceeded"; a running solve is
///     cooperatively cancelled (util/cancel.hpp tokens, polled at chunk
///     granularity in the solver stack) once the *loosest* surviving budget
///     in its dedup group passes — a solve is abandoned only when no member
///     still wants the answer. Cancelled solves are discarded, so completed
///     replies stay bit-identical.
///   - **Load shedding**: with `queue_high_watermark` set, a submit that
///     overflows the queue sheds the lowest-priority tickets (code
///     "overloaded") down to the low watermark.
///   - **Degrade mode**: with `degrade_on_deadline`, a deadline-cancelled
///     solve answers with a fast heuristic front instead of an error —
///     flagged `Reply::degraded`, `exact == false`, never cached.
///   - **Graceful drain**: after `begin_shutdown()`, new work is refused
///     with "shutting-down" while already-queued tickets keep draining.
///
/// Every entry point runs steps 1-2 (admission, canonicalization, full cache
/// key) on the caller's thread and hands the outcome to one dispatch core,
/// which enforces the deadline, groups, orders and runs steps 3-5.
/// Canonicalization is the `prepare` step: a request either carries an
/// instance `prepare`d earlier (a session prepares each upload once and
/// reuses it for every solve that names it) or raw records that admission
/// prepares the same way; the prepared form is shared, never copied.
/// `solve_batched` is the concurrent serving entry point: each session
/// admits its request and probes the cache on its own thread. A hit is
/// answered right there — it never queues, so it is never shed, never
/// priority-ordered and records no queue wait. A miss (or a request that
/// failed admission, has no budget left, or arrives during shutdown)
/// submits its outcome into the shared queue and blocks for its own reply;
/// one session drains the batch for everyone (waiter/drainer), so
/// concurrent tenants coalesce into the same dedup + priority dispatch a
/// single `solve_batch` call gets.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "relap/exec/thread_pool.hpp"
#include "relap/service/cache.hpp"
#include "relap/service/canonical.hpp"
#include "relap/service/journal.hpp"
#include "relap/service/metrics.hpp"
#include "relap/service/request.hpp"
#include "relap/service/snapshot.hpp"
#include "relap/util/cancel.hpp"

namespace relap::service {

struct BrokerOptions {
  /// Pool for batch dispatch and the solver hot paths; null uses
  /// `exec::ThreadPool::shared()`.
  exec::ThreadPool* pool = nullptr;
  FrontCache::Options cache;
  /// Admission caps: requests beyond these reject with code "oversized".
  std::size_t max_stages = 64;
  std::size_t max_processors = 64;
  /// Admission control for the submit/drain queue: when a submit pushes the
  /// pending count past the high watermark, the lowest-priority tickets
  /// (ties: latest deadline, then newest arrival) are shed with code
  /// "overloaded" until only the low watermark remain. 0 disables shedding;
  /// a zero low watermark defaults to half the high one.
  std::size_t queue_high_watermark = 0;
  std::size_t queue_low_watermark = 0;
  /// Serve deadline-cancelled solves with a fast heuristic front
  /// (`Reply::degraded`, `exact == false`, never cached) instead of a
  /// "deadline-exceeded" error.
  bool degrade_on_deadline = false;
};

class Broker {
 public:
  explicit Broker(BrokerOptions options = {});

  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;

  /// Serves one request synchronously.
  [[nodiscard]] util::Expected<Reply> solve(const SolveRequest& request);

  /// Serves a batch: replies in submission order, duplicates deduped onto one
  /// solve, groups dispatched over the pool in priority order.
  [[nodiscard]] std::vector<util::Expected<Reply>> solve_batch(
      std::span<const SolveRequest> requests);

  /// Serves one request, blocking until its reply is ready. This is the
  /// concurrent TCP front's entry point. Each caller admits its own request
  /// and probes the cache on its own thread: a hit (shutdown not begun,
  /// admission passed, budget unspent at zero queue wait plus any armed
  /// clock skew — a direct `solve`'s rule) is answered at once and never
  /// enters the queue. Everything else goes through the shared submit/drain
  /// queue, where concurrent callers coalesce: one caller dispatches the
  /// batch for everyone (dedup and priority dispatch apply *across*
  /// callers), the others wait on their tickets. Shed / shutdown outcomes
  /// surface as "overloaded" / "shutting-down" errors.
  [[nodiscard]] util::Expected<Reply> solve_batched(const SolveRequest& request);

  /// Admits a request on the calling thread and queues the outcome for the
  /// next `drain()`; returns its ticket id. After `begin_shutdown()` the
  /// ticket resolves to a "shutting-down" error; a submit that overflows the
  /// high watermark sheds (see BrokerOptions).
  std::uint64_t submit(const SolveRequest& request);

  /// Prepares `instance` for any number of later solves
  /// (`SolveRequest::prepared`): checks the stage and processor caps on the
  /// record counts and only within them canonicalizes. Never fails — a
  /// refused instance carries its error to each solve that names it, which
  /// reports it in admission order.
  [[nodiscard]] std::shared_ptr<const PreparedInstance> prepare(
      const InstanceData& instance) const;

  /// Number of submitted, not-yet-drained requests.
  [[nodiscard]] std::size_t pending() const;

  struct Drained {
    std::uint64_t id = 0;
    util::Expected<Reply> reply;
  };

  /// Serves every queued request as one batch; results carry the ticket ids
  /// handed out by `submit`, in submission order (sorted by id). Also
  /// delivers the backlog: tickets already resolved without a solve (shed
  /// "overloaded", post-shutdown "shutting-down"). Tickets a concurrent
  /// `solve_batched` drainer is solving right now surface on a later drain.
  [[nodiscard]] std::vector<Drained> drain();

  /// Graceful drain: after this, `solve`/`solve_batch`/`solve_batched`
  /// refuse with code "shutting-down" and new submits resolve to the same
  /// error, while already-queued tickets keep draining normally.
  void begin_shutdown();
  [[nodiscard]] bool shutting_down() const {
    return shutting_down_.load(std::memory_order_acquire);
  }

  [[nodiscard]] CacheStats cache_stats() const { return cache_.stats(); }
  void clear_cache() { cache_.clear(); }

  /// Aggregate observability: every counter/histogram the broker records
  /// (metrics.hpp). Live — reading does not reset anything.
  [[nodiscard]] const ServiceMetrics& metrics() const { return metrics_; }
  /// The same registry for recording: the serving front (server.hpp) adds
  /// its wire-layer `render`/`write` samples here.
  [[nodiscard]] ServiceMetrics& metrics() { return metrics_; }

  /// One-line JSON document combining `metrics()` with the cache counters,
  /// journal counters and process uptime:
  /// {"cache":{...},"journal":{...},"uptime_seconds":S,...service fields...}.
  [[nodiscard]] std::string metrics_json() const;

  /// Persists the memo cache to `path` (snapshot.hpp; crash-safe
  /// temp-then-rename, version- and build-stamped). With a journal attached
  /// this is *compaction*: once the snapshot commits, the journal is
  /// atomically rotated back to empty — its records are all inside the
  /// snapshot now. A snapshot failure leaves the journal untouched; a
  /// rotation failure reports "io" but the snapshot is committed and a
  /// replay of the stale journal over it is idempotent, so no outcome loses
  /// data.
  [[nodiscard]] util::Expected<SnapshotStats> save_snapshot(const std::string& path);

  /// Warm-starts the memo cache from a snapshot. Version-mismatched or
  /// corrupted snapshots are rejected with structured errors and leave the
  /// cache untouched. Replies served from restored entries are bit-identical
  /// to same-process warm replies: the snapshot round-trips the solved
  /// fronts' exact bit patterns and the broker denormalizes per request
  /// either way.
  [[nodiscard]] util::Expected<SnapshotStats> load_snapshot(const std::string& path);

  struct RecoveryStats {
    std::size_t snapshot_entries = 0;   ///< entries restored from the snapshot
    std::uint64_t journal_records = 0;  ///< intact journal records replayed on top
    std::uint64_t torn_records = 0;     ///< discarded torn tail (0 or 1)
    bool snapshot_loaded = false;       ///< false when no snapshot file existed
    double seconds = 0.0;               ///< recovery wall time
  };

  /// Crash recovery in one step: loads the snapshot at `snapshot_path` (a
  /// missing file is a cold start, not an error), replays the journal at
  /// `journal_path` on top (idempotent re-inserts in append order, so
  /// contents *and* LRU recency match the never-crashed cache), truncates
  /// the journal's torn tail, and attaches the journal so every subsequent
  /// cache-miss solve appends to it. Either path may be empty to skip that
  /// half. Errors ("io", "snapshot-*", "journal-*") leave the cache in
  /// whatever state the completed steps produced and no journal attached.
  [[nodiscard]] util::Expected<RecoveryStats> recover(const std::string& snapshot_path,
                                                      const std::string& journal_path,
                                                      JournalOptions journal_options = {});

  /// True once `recover` attached a journal: cache-miss solves append.
  [[nodiscard]] bool journal_enabled() const;

  /// Live journal counters (zeroes when no journal is attached).
  [[nodiscard]] JournalStats journal_stats() const;

  /// Forces the journal's group commit early (clean-shutdown durability).
  /// No-op success when no journal is attached.
  [[nodiscard]] util::Expected<JournalStats> sync_journal();

 private:
  /// A request that passed admission + canonicalization, ready to dispatch.
  struct Admitted {
    /// Shared with the session's upload (or this request alone for raw
    /// records); always holds a canonical form.
    std::shared_ptr<const PreparedInstance> prepared;
    std::string full_key;        ///< canonical bytes + objective/knob suffix
    std::uint64_t full_hash = 0;
    double threshold_canonical = 0.0;
    double canonicalize_seconds = 0.0;

    [[nodiscard]] const CanonicalInstance& canonical() const { return *prepared->canonical; }
  };

  /// One request on its way to dispatch: its admission outcome and the
  /// knobs dispatch reads. The raw instance is not kept.
  struct Ticket {
    std::uint64_t id = 0;
    SolveKnobs knobs;
    util::Expected<Admitted> admitted;
    std::chrono::steady_clock::time_point submitted;  ///< queued (admission done)
  };

  /// The "oversized" error for these record counts, if the caps refuse them.
  [[nodiscard]] std::optional<util::Error> oversized(std::size_t stages,
                                                     std::size_t processors) const;
  [[nodiscard]] util::Expected<Admitted> admit(const SolveRequest& request) const;
  /// Admits `request` on the calling thread; the ticket's id is 0 until the
  /// caller queues it.
  [[nodiscard]] Ticket make_ticket(const SolveRequest& request) const;
  [[nodiscard]] util::Expected<algorithms::FrontReport> solve_canonical(
      const SolveKnobs& knobs, const Admitted& admitted, const util::CancelToken* cancel) const;
  [[nodiscard]] Reply make_reply(const Admitted& admitted, const algorithms::FrontReport& report,
                                 bool cache_hit, TraceSpans spans) const;
  /// The one cache-hit path, shared by dispatch and `solve_batched`'s fast
  /// path: probes the cache for `admitted` and on a hit builds its reply
  /// into `reply`. Returns the cached front, or null on a miss. The probe is
  /// timed into `spans` and the `cache_probe` histogram; a miss with
  /// `count_miss` false (a probe the queue path repeats) is recorded nowhere.
  std::shared_ptr<const algorithms::FrontReport> reply_from_cache(
      const Admitted& admitted, TraceSpans& spans, bool count_miss,
      std::optional<util::Expected<Reply>>& reply);
  /// The one dispatch path behind every entry point: dequeue-time deadline
  /// check, admission outcome, dedup grouping, priority order, then solve
  /// or cache probe per group. `queue_waits` (empty for direct calls, else
  /// one value per ticket) carries the queued -> dispatch delay into spans
  /// and metrics, and is what dequeue-time deadline enforcement measures
  /// budgets against.
  [[nodiscard]] std::vector<util::Expected<Reply>> dispatch(std::span<const Ticket> tickets,
                                                            std::span<const double> queue_waits);

  /// Appends a freshly solved entry to the journal, if one is attached.
  /// Append failures are absorbed (the reply already exists and the
  /// journal's own `append_errors` counter surfaces the condition).
  void journal_insert(std::uint64_t hash, const std::string& key,
                      const std::shared_ptr<const algorithms::FrontReport>& value);

  BrokerOptions options_;
  FrontCache cache_;
  mutable ServiceMetrics metrics_;
  const std::chrono::steady_clock::time_point started_ = std::chrono::steady_clock::now();

  /// Guards the journal *and* the export-save-rotate compaction window: an
  /// append always follows its cache insert, so holding this across
  /// export+rotate means a concurrent solve's record lands either in the
  /// snapshot (insert before export) or in the fresh journal (append after
  /// rotate) — never rotated away unsaved.
  mutable std::mutex journal_mutex_;
  std::unique_ptr<Journal> journal_;

  /// Solves a swapped-out queue segment; caller routes the results.
  [[nodiscard]] std::vector<Drained> solve_tickets(const std::vector<Ticket>& batch);
  /// Sheds down to the low watermark; requires `queue_mutex_` held.
  void shed_overflow_locked();
  /// Resolves a ticket without solving (shed / shutdown); requires
  /// `queue_mutex_` held.
  void resolve_ticket_locked(std::uint64_t id, util::Expected<Reply> reply);

  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::vector<Ticket> queue_;
  /// Resolved non-waiter tickets awaiting the next `drain()`.
  std::vector<Drained> completed_;
  /// `solve_batched` coordination: callers park their ticket id in
  /// `waiter_ids_` and collect the reply from `waiter_results_`; at most one
  /// caller drains at a time (`draining_`).
  std::unordered_set<std::uint64_t> waiter_ids_;
  std::unordered_map<std::uint64_t, util::Expected<Reply>> waiter_results_;
  bool draining_ = false;
  std::uint64_t next_ticket_ = 1;
  std::atomic<bool> shutting_down_{false};
};

}  // namespace relap::service
