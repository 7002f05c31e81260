#include "relap/service/broker.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>

#include "relap/service/faultpoint.hpp"
#include "relap/util/bytes.hpp"
#include "relap/util/hash.hpp"

namespace relap::service {

namespace {

double elapsed_seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

util::Error deadline_exceeded_error(double deadline) {
  return util::make_error("deadline-exceeded",
                          "wall-clock budget of " + std::to_string(deadline) +
                              "s was spent before a result was ready");
}

util::Error shutting_down_error() {
  return util::make_error("shutting-down", "broker is draining; no new work is accepted");
}

/// Seconds the broker's clock is ahead of the real one — always 0 unless the
/// "broker.clock_skew" fault point is armed (deterministic deadline tests).
double clock_skew_seconds() {
  return faultpoint::fire_value("broker.clock_skew").value_or(0.0);
}

/// True iff a budget of `deadline` seconds is spent after `elapsed` seconds.
/// NaN / negative deadlines are malformed (rejected at admission) and never
/// *expire* here; +inf never expires; 0 always does.
bool deadline_expired(double deadline, double elapsed) {
  return deadline >= 0.0 && elapsed >= deadline;
}

/// Bytes the knobs append to the canonical instance bytes in a full cache
/// key: objective, method, threshold, budget, sweep size.
constexpr std::size_t kKnobSuffixBytes = 1 + 1 + 8 + 8 + 8;

}  // namespace

Broker::Broker(BrokerOptions options) : options_(options), cache_(options.cache) {}

std::optional<util::Error> Broker::oversized(std::size_t stages, std::size_t processors) const {
  if (stages > options_.max_stages) {
    return util::make_error("oversized", "request has " + std::to_string(stages) +
                                             " stages, broker admits at most " +
                                             std::to_string(options_.max_stages));
  }
  if (processors > options_.max_processors) {
    return util::make_error("oversized", "request has " + std::to_string(processors) +
                                             " processors, broker admits at most " +
                                             std::to_string(options_.max_processors));
  }
  return std::nullopt;
}

std::shared_ptr<const PreparedInstance> Broker::prepare(const InstanceData& instance) const {
  const std::size_t stages = instance.stages.size();
  const std::size_t processors = instance.processors.size();
  // The caps read the record counts only: an instance they refuse is never
  // canonicalized, however large the wire caps let it grow.
  if (std::optional<util::Error> refused = oversized(stages, processors)) {
    return std::make_shared<const PreparedInstance>(
        PreparedInstance{stages, processors, std::move(*refused)});
  }
  const auto start = std::chrono::steady_clock::now();
  auto prepared = std::make_shared<const PreparedInstance>(
      PreparedInstance{stages, processors, canonicalize(instance)});
  metrics_.prepare.record(elapsed_seconds(start));
  return prepared;
}

util::Expected<Broker::Admitted> Broker::admit(const SolveRequest& request) const {
  const auto start = std::chrono::steady_clock::now();
  std::shared_ptr<const PreparedInstance> prepared =
      request.prepared ? request.prepared : prepare(request.instance);
  if (std::optional<util::Error> refused = oversized(prepared->stages, prepared->processors)) {
    return std::move(*refused);
  }
  if (request.max_evaluations == 0) {
    return util::make_error("malformed", "max_evaluations must be > 0");
  }
  if (std::isnan(request.deadline)) {
    return util::make_error("malformed", "deadline must not be NaN");
  }
  if (request.deadline < 0.0) {
    return util::make_error("malformed", "deadline must be a non-negative number of seconds");
  }
  if (request.objective == Objective::ParetoFront && request.pareto_thresholds < 2) {
    return util::make_error("malformed", "pareto_thresholds must be >= 2 for a front sweep");
  }
  if (request.objective != Objective::ParetoFront) {
    if (std::isnan(request.threshold)) {
      return util::make_error("malformed", "threshold must not be NaN");
    }
    if (request.threshold < 0.0) {
      return util::infeasible("no mapping satisfies a negative " +
                              std::string(request.objective == Objective::MinFpForLatency
                                              ? "latency"
                                              : "failure probability") +
                              " bound");
    }
  }

  if (!prepared->canonical.has_value()) return prepared->canonical.error();

  Admitted admitted{std::move(prepared), std::string(), 0, 0.0, 0.0};
  const CanonicalInstance& canonical = admitted.canonical();
  // Thresholds live in caller time units; the canonical form's latency axis
  // is scaled by time_scale (an exact power of two), so the cap converts
  // exactly too. FP caps are dimensionless.
  switch (request.objective) {
    case Objective::MinFpForLatency:
      admitted.threshold_canonical = request.threshold * canonical.time_scale;
      break;
    case Objective::MinLatencyForFp:
      admitted.threshold_canonical = request.threshold;
      break;
    case Objective::ParetoFront:
      admitted.threshold_canonical = 0.0;
      break;
  }

  // Full cache key: canonical instance bytes plus every knob that can change
  // the solved front. pareto_thresholds only shapes ParetoFront sweeps, so
  // it is zeroed otherwise to keep unrelated requests on one key.
  admitted.full_key.reserve(canonical.key_bytes.size() + kKnobSuffixBytes);
  admitted.full_key.append(canonical.key_bytes);
  admitted.full_key.push_back(static_cast<char>(request.objective));
  admitted.full_key.push_back(static_cast<char>(request.method));
  util::bytes::append_double_le(admitted.full_key, admitted.threshold_canonical);
  util::bytes::append_u64_le(admitted.full_key, request.max_evaluations);
  util::bytes::append_u64_le(admitted.full_key,
                             request.objective == Objective::ParetoFront
                                 ? static_cast<std::uint64_t>(request.pareto_thresholds)
                                 : 0);
  // FNV-1a streams: chaining from the canonical bytes' hash over the knob
  // suffix gives fnv1a(full_key) without rehashing the instance.
  util::Fnv1a full_hash(canonical.key_hash);
  full_hash.add(std::string_view(admitted.full_key).substr(canonical.key_bytes.size()));
  admitted.full_hash = full_hash.value();
  admitted.canonicalize_seconds = elapsed_seconds(start);
  return admitted;
}

Broker::Ticket Broker::make_ticket(const SolveRequest& request) const {
  // Braced initializers run in order: the queue clock starts once admission
  // is done.
  return Ticket{0, request, admit(request), std::chrono::steady_clock::now()};
}

util::Expected<algorithms::FrontReport> Broker::solve_canonical(
    const SolveKnobs& knobs, const Admitted& admitted, const util::CancelToken* cancel) const {
  algorithms::SolveOptions options;
  options.method = knobs.method;
  options.auto_exhaustive_budget = knobs.max_evaluations;
  options.pareto_thresholds = knobs.pareto_thresholds;
  options.exhaustive.max_evaluations = knobs.max_evaluations;
  options.exhaustive.pool = options_.pool;
  options.exhaustive.cancel = cancel;
  options.heuristic.pool = options_.pool;
  options.heuristic.cancel = cancel;

  const pipeline::Pipeline& pipeline = admitted.canonical().pipeline;
  const platform::Platform& platform = admitted.canonical().platform;

  if (knobs.objective == Objective::ParetoFront) {
    return algorithms::solve_pareto_front(pipeline, platform, options);
  }

  util::Expected<algorithms::SolveReport> solved =
      knobs.objective == Objective::MinFpForLatency
          ? algorithms::solve_min_fp_for_latency(pipeline, platform,
                                                 admitted.threshold_canonical, options)
          : algorithms::solve_min_latency_for_fp(pipeline, platform,
                                                 admitted.threshold_canonical, options);
  if (!solved.has_value()) return solved.error();
  algorithms::SolveReport report = std::move(solved).take();
  algorithms::FrontReport front;
  front.front.push_back(algorithms::ParetoSolution{report.solution.latency,
                                                   report.solution.failure_probability,
                                                   std::move(report.solution.mapping)});
  front.algorithm = std::move(report.algorithm);
  front.exact = report.exact;
  return front;
}

Reply Broker::make_reply(const Admitted& admitted, const algorithms::FrontReport& report,
                         bool cache_hit, TraceSpans spans) const {
  const auto start = std::chrono::steady_clock::now();
  Reply reply;
  reply.front = denormalize_front(admitted.canonical(), report.front);
  reply.algorithm = report.algorithm;
  reply.exact = report.exact;
  reply.cache_hit = cache_hit;
  reply.canonical_hash = admitted.canonical().key_hash;
  spans.denormalize_seconds = elapsed_seconds(start);
  reply.solve_seconds = spans.solve_seconds;
  reply.spans = spans;
  metrics_.denormalize.record(spans.denormalize_seconds);
  metrics_.request.record(spans.queue_wait_seconds + spans.canonicalize_seconds +
                          spans.cache_probe_seconds + spans.solve_seconds +
                          spans.denormalize_seconds);
  return reply;
}

std::shared_ptr<const algorithms::FrontReport> Broker::reply_from_cache(
    const Admitted& admitted, TraceSpans& spans, bool count_miss,
    std::optional<util::Expected<Reply>>& reply) {
  const auto start = std::chrono::steady_clock::now();
  std::shared_ptr<const algorithms::FrontReport> report =
      cache_.find(admitted.full_hash, admitted.full_key, count_miss);
  spans.cache_probe_seconds = elapsed_seconds(start);
  if (report || count_miss) metrics_.cache_probe.record(spans.cache_probe_seconds);
  if (report) reply = make_reply(admitted, *report, true, spans);
  return report;
}

util::Expected<Reply> Broker::solve(const SolveRequest& request) {
  std::vector<util::Expected<Reply>> replies = solve_batch(std::span(&request, 1));
  return std::move(replies.front());
}

std::vector<util::Expected<Reply>> Broker::solve_batch(std::span<const SolveRequest> requests) {
  if (shutting_down()) {
    std::vector<util::Expected<Reply>> replies;
    replies.reserve(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) replies.push_back(shutting_down_error());
    return replies;
  }
  std::vector<Ticket> tickets;
  tickets.reserve(requests.size());
  for (const SolveRequest& request : requests) tickets.push_back(make_ticket(request));
  return dispatch(tickets, {});
}

std::vector<util::Expected<Reply>> Broker::dispatch(std::span<const Ticket> tickets,
                                                    std::span<const double> queue_waits) {
  const std::size_t count = tickets.size();
  metrics_.batches_total.add(1);
  metrics_.requests_total.add(count);
  std::vector<std::optional<util::Expected<Reply>>> staged(count);
  const auto admitted = [&](std::size_t i) -> const Admitted& { return *tickets[i].admitted; };
  const auto queue_wait_of = [&](std::size_t i) {
    return queue_waits.empty() ? 0.0 : queue_waits[i];
  };
  /// The spans ticket i brings to dispatch: its queue wait and admission.
  const auto spans_of = [&](std::size_t i) {
    TraceSpans spans;
    spans.queue_wait_seconds = queue_wait_of(i);
    spans.canonicalize_seconds = admitted(i).canonicalize_seconds;
    return spans;
  };
  // Deadline budgets are measured against the queue wait plus any armed
  // clock skew (faultpoint.hpp); `batch_start` anchors the mid-solve
  // cancellation deadlines below.
  const auto batch_start = std::chrono::steady_clock::now();
  const double skew = clock_skew_seconds();

  // Group requests with equal full keys (first-seen order): one solve per
  // group, everyone else rides the cache.
  struct Group {
    std::vector<std::size_t> members;
    int priority = 0;
    double deadline = 0.0;
    std::size_t arrival = 0;
    /// Loosest member budget still unspent at batch_start, seconds.
    double remaining = 0.0;
  };
  std::vector<Group> groups;
  std::unordered_map<std::string_view, std::size_t> group_of;
  for (std::size_t i = 0; i < count; ++i) {
    const SolveKnobs& knobs = tickets[i].knobs;
    // Dequeue-time deadline enforcement: a budget already spent while
    // queued is rejected before its admission outcome is looked at (deadline
    // 0 expires deterministically; NaN/negative fall through to admit's
    // "malformed").
    if (deadline_expired(knobs.deadline, queue_wait_of(i) + skew)) {
      metrics_.deadline_exceeded_total.add(1);
      staged[i] = deadline_exceeded_error(knobs.deadline);
      continue;
    }
    if (!tickets[i].admitted.has_value()) {
      metrics_.rejected_total.add(1);
      staged[i] = tickets[i].admitted.error();
      continue;
    }
    metrics_.canonicalize.record(admitted(i).canonicalize_seconds);
    if (!queue_waits.empty()) metrics_.queue_wait.record(queue_waits[i]);
    const double remaining = knobs.deadline - queue_wait_of(i) - skew;
    const std::string_view key = admitted(i).full_key;
    auto [it, inserted] = group_of.try_emplace(key, groups.size());
    if (inserted) {
      groups.push_back(Group{{i}, knobs.priority, knobs.deadline, i, remaining});
    } else {
      Group& group = groups[it->second];
      group.members.push_back(i);
      group.priority = std::max(group.priority, knobs.priority);
      group.deadline = std::min(group.deadline, knobs.deadline);
      group.remaining = std::max(group.remaining, remaining);
    }
  }

  // Dispatch order: priority first, tighter deadline next, arrival last.
  // The pool claims task indices in increasing order, so this is the order
  // solves *start* in.
  std::stable_sort(groups.begin(), groups.end(), [](const Group& a, const Group& b) {
    if (a.priority != b.priority) return a.priority > b.priority;
    if (a.deadline != b.deadline) return a.deadline < b.deadline;
    return a.arrival < b.arrival;
  });

  exec::ThreadPool::resolve(options_.pool).run(groups.size(), [&](std::size_t g) {
    const Group& group = groups[g];
    const std::size_t lead_index = group.members.front();
    const Admitted& lead = admitted(lead_index);

    // Mid-solve cancellation is armed with the group's *loosest* surviving
    // budget: the solve is abandoned only once no member still wants the
    // answer. (Tighter members of a mixed group may therefore receive a
    // completed reply after their own budget — a finished answer is always
    // delivered.)
    util::CancelToken cancel;
    if (std::isfinite(group.remaining)) {
      cancel.set_deadline(batch_start +
                          std::chrono::duration_cast<util::CancelToken::Clock::duration>(
                              std::chrono::duration<double>(group.remaining)));
    }

    TraceSpans lead_spans = spans_of(lead_index);
    std::shared_ptr<const algorithms::FrontReport> report =
        reply_from_cache(lead, lead_spans, true, staged[lead_index]);
    if (!report) {
      metrics_.solves_total.add(1);
      // Fault point: a stalled solver thread — how the tests drive the
      // deadline-cancellation path deterministically.
      if (const std::optional<double> stall = faultpoint::fire_value("broker.solve_stall")) {
        std::this_thread::sleep_for(std::chrono::duration<double>(*stall));
      }
      const auto start = std::chrono::steady_clock::now();
      util::Expected<algorithms::FrontReport> solved =
          solve_canonical(tickets[lead_index].knobs, lead, &cancel);
      lead_spans.solve_seconds = elapsed_seconds(start);
      metrics_.solve.record(lead_spans.solve_seconds);
      if (!solved.has_value() && solved.error().code == "cancelled") {
        // The deadline passed mid-solve; the partial work is discarded so a
        // completed reply can never depend on cancellation timing.
        metrics_.cancelled_total.add(1);
        if (options_.degrade_on_deadline) {
          SolveKnobs fallback_knobs = tickets[lead_index].knobs;
          fallback_knobs.method = algorithms::Method::Heuristic;
          const auto fallback_start = std::chrono::steady_clock::now();
          util::Expected<algorithms::FrontReport> fallback =
              solve_canonical(fallback_knobs, lead, nullptr);
          lead_spans.solve_seconds += elapsed_seconds(fallback_start);
          if (fallback.has_value()) {
            const algorithms::FrontReport degraded_report = std::move(fallback).take();
            for (std::size_t k = 0; k < group.members.size(); ++k) {
              const std::size_t member = group.members[k];
              TraceSpans spans = lead_spans;
              if (k != 0) {
                spans.queue_wait_seconds = queue_wait_of(member);
                spans.canonicalize_seconds = admitted(member).canonicalize_seconds;
              }
              Reply reply = make_reply(admitted(member), degraded_report, false, spans);
              reply.degraded = true;
              metrics_.degraded_total.add(1);
              staged[member] = std::move(reply);
            }
            return;
          }
          // Even the heuristic fallback failed; report the deadline.
        }
        for (const std::size_t member : group.members) {
          metrics_.deadline_exceeded_total.add(1);
          staged[member] = deadline_exceeded_error(tickets[member].knobs.deadline);
        }
        return;
      }
      if (!solved.has_value()) {
        // Errors are not cached: every member gets its own copy.
        metrics_.solve_errors_total.add(1);
        for (const std::size_t member : group.members) staged[member] = solved.error();
        return;
      }
      report = std::make_shared<const algorithms::FrontReport>(std::move(solved).take());
      cache_.insert(lead.full_hash, lead.full_key, report);
      journal_insert(lead.full_hash, lead.full_key, report);
      staged[lead_index] = make_reply(lead, *report, false, lead_spans);
    }

    // Deduped members re-probe so the hit counters reflect them; the local
    // report backstops the (theoretical) eviction race within one batch.
    for (std::size_t k = 1; k < group.members.size(); ++k) {
      const std::size_t member = group.members[k];
      metrics_.deduped_total.add(1);
      TraceSpans member_spans = spans_of(member);
      if (!reply_from_cache(admitted(member), member_spans, true, staged[member])) {
        staged[member] = make_reply(admitted(member), *report, true, member_spans);
      }
    }
  });

  std::vector<util::Expected<Reply>> replies;
  replies.reserve(count);
  for (std::size_t i = 0; i < count; ++i) replies.push_back(std::move(*staged[i]));
  return replies;
}

void Broker::resolve_ticket_locked(std::uint64_t id, util::Expected<Reply> reply) {
  if (waiter_ids_.contains(id)) {
    waiter_results_.emplace(id, std::move(reply));
  } else {
    completed_.push_back(Drained{id, std::move(reply)});
  }
}

void Broker::shed_overflow_locked() {
  const std::size_t high = options_.queue_high_watermark;
  if (high == 0 || queue_.size() <= high) return;
  std::size_t low = options_.queue_low_watermark;
  if (low == 0 || low > high) low = high / 2;
  while (queue_.size() > low) {
    // Victim: lowest priority, ties broken toward the latest deadline, then
    // the newest arrival — the work whose loss costs the least.
    const auto victim = std::min_element(
        queue_.begin(), queue_.end(), [](const Ticket& a, const Ticket& b) {
          if (a.knobs.priority != b.knobs.priority) return a.knobs.priority < b.knobs.priority;
          if (a.knobs.deadline != b.knobs.deadline) return a.knobs.deadline > b.knobs.deadline;
          return a.id > b.id;
        });
    metrics_.shed_total.add(1);
    resolve_ticket_locked(
        victim->id,
        util::make_error("overloaded",
                         "queue exceeded its high watermark (" + std::to_string(high) +
                             ") and this request was shed"));
    queue_.erase(victim);
  }
  // Shed waiters must wake up and find their "overloaded" result.
  queue_cv_.notify_all();
}

std::uint64_t Broker::submit(const SolveRequest& request) {
  Ticket ticket = make_ticket(request);
  std::lock_guard<std::mutex> lock(queue_mutex_);
  const std::uint64_t id = ticket.id = next_ticket_++;
  if (shutting_down()) {
    resolve_ticket_locked(id, shutting_down_error());
    return id;
  }
  queue_.push_back(std::move(ticket));
  shed_overflow_locked();
  return id;
}

std::size_t Broker::pending() const {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  return queue_.size();
}

std::vector<Broker::Drained> Broker::solve_tickets(const std::vector<Ticket>& batch) {
  const auto drained_at = std::chrono::steady_clock::now();
  std::vector<double> queue_waits;
  queue_waits.reserve(batch.size());
  for (const Ticket& ticket : batch) {
    queue_waits.push_back(std::chrono::duration<double>(drained_at - ticket.submitted).count());
  }
  std::vector<util::Expected<Reply>> replies = dispatch(batch, queue_waits);
  std::vector<Drained> drained;
  drained.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    drained.push_back(Drained{batch[i].id, std::move(replies[i])});
  }
  return drained;
}

std::vector<Broker::Drained> Broker::drain() {
  std::vector<Ticket> batch;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    batch.swap(queue_);
  }
  std::vector<Drained> solved = solve_tickets(batch);
  std::vector<Drained> drained;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    // Route `solve_batched` waiters' results to them; everything else —
    // including the backlog of already-resolved tickets (shed, shutdown) —
    // is this drain's to return.
    bool woke_waiter = false;
    for (Drained& d : solved) {
      if (waiter_ids_.contains(d.id)) {
        waiter_results_.emplace(d.id, std::move(d.reply));
        woke_waiter = true;
      } else {
        drained.push_back(std::move(d));
      }
    }
    for (Drained& d : completed_) drained.push_back(std::move(d));
    completed_.clear();
    if (woke_waiter) queue_cv_.notify_all();
  }
  std::sort(drained.begin(), drained.end(),
            [](const Drained& a, const Drained& b) { return a.id < b.id; });
  return drained;
}

util::Expected<Reply> Broker::solve_batched(const SolveRequest& request) {
  Ticket ticket = make_ticket(request);
  // Hit fast path: a request that would pass dispatch's checks at zero
  // queue wait (a direct solve's rule) probes the cache on this thread and,
  // on a hit, is answered here — no queue, no drainer, no batch. Its miss is
  // not counted: the queue path below probes again and counts it once.
  if (!shutting_down() && ticket.admitted.has_value() &&
      !deadline_expired(ticket.knobs.deadline, clock_skew_seconds())) {
    TraceSpans spans;
    spans.canonicalize_seconds = ticket.admitted->canonicalize_seconds;
    std::optional<util::Expected<Reply>> hit;
    if (reply_from_cache(*ticket.admitted, spans, false, hit)) {
      metrics_.requests_total.add(1);
      metrics_.canonicalize.record(spans.canonicalize_seconds);
      return std::move(*hit);
    }
  }
  std::unique_lock<std::mutex> lock(queue_mutex_);
  if (shutting_down()) return shutting_down_error();
  const std::uint64_t id = ticket.id = next_ticket_++;
  waiter_ids_.insert(id);
  queue_.push_back(std::move(ticket));
  shed_overflow_locked();  // may shed this very ticket: the loop below sees it
  while (true) {
    const auto ready = waiter_results_.find(id);
    if (ready != waiter_results_.end()) {
      util::Expected<Reply> reply = std::move(ready->second);
      waiter_results_.erase(ready);
      waiter_ids_.erase(id);
      return reply;
    }
    if (!draining_ && !queue_.empty()) {
      // Become the drainer: dispatch the whole queue segment — our ticket
      // and every concurrent session's, all admitted already — as one
      // deduped, priority-ordered batch.
      draining_ = true;
      std::vector<Ticket> batch;
      batch.swap(queue_);
      lock.unlock();
      std::vector<Drained> solved = solve_tickets(batch);
      lock.lock();
      for (Drained& d : solved) resolve_ticket_locked(d.id, std::move(d.reply));
      draining_ = false;
      queue_cv_.notify_all();
    } else {
      queue_cv_.wait(lock);
    }
  }
}

void Broker::begin_shutdown() {
  shutting_down_.store(true, std::memory_order_release);
  std::lock_guard<std::mutex> lock(queue_mutex_);
  queue_cv_.notify_all();
}

void Broker::journal_insert(std::uint64_t hash, const std::string& key,
                            const std::shared_ptr<const algorithms::FrontReport>& value) {
  std::lock_guard<std::mutex> lock(journal_mutex_);
  if (!journal_) return;
  // Append failures never fail the reply: the solve succeeded and the
  // journal's append_errors counter (metrics_json) surfaces the degraded
  // durability.
  (void)journal_->append(FrontCache::ExportedEntry{hash, key, value});
}

bool Broker::journal_enabled() const {
  std::lock_guard<std::mutex> lock(journal_mutex_);
  return journal_ != nullptr;
}

JournalStats Broker::journal_stats() const {
  std::lock_guard<std::mutex> lock(journal_mutex_);
  return journal_ ? journal_->stats() : JournalStats{};
}

util::Expected<JournalStats> Broker::sync_journal() {
  std::lock_guard<std::mutex> lock(journal_mutex_);
  if (!journal_) return JournalStats{};
  return journal_->sync();
}

util::Expected<Broker::RecoveryStats> Broker::recover(const std::string& snapshot_path,
                                                      const std::string& journal_path,
                                                      JournalOptions journal_options) {
  const auto start = std::chrono::steady_clock::now();
  RecoveryStats stats;
  if (!snapshot_path.empty() && ::access(snapshot_path.c_str(), F_OK) == 0) {
    util::Expected<SnapshotStats> loaded = load_snapshot(snapshot_path);
    if (!loaded.has_value()) return loaded.error();
    stats.snapshot_entries = loaded->entries;
    stats.snapshot_loaded = true;
  }
  if (!journal_path.empty()) {
    util::Expected<Journal::Opened> opened = Journal::open(journal_path, journal_options);
    if (!opened.has_value()) return opened.error();
    // Replay in append order: `insert` keeps the first value for a repeated
    // key but refreshes its recency, so snapshot entries overlaid with
    // journal records reproduce the never-crashed cache's contents and
    // per-shard LRU order.
    for (FrontCache::ExportedEntry& entry : opened.value().replayed.entries) {
      cache_.insert(entry.hash, std::move(entry.key), std::move(entry.value));
    }
    stats.journal_records = opened.value().replayed.entries.size();
    stats.torn_records = opened.value().replayed.torn_records;
    metrics_.journal_records_replayed.add(stats.journal_records);
    metrics_.journal_records_discarded_torn.add(stats.torn_records);
    std::lock_guard<std::mutex> lock(journal_mutex_);
    journal_ = std::move(opened.value().journal);
  }
  stats.seconds = elapsed_seconds(start);
  metrics_.recovery_seconds.set(stats.seconds);
  return stats;
}

std::string Broker::metrics_json() const {
  const CacheStats stats = cache_.stats();
  char cache_json[256];
  std::snprintf(cache_json, sizeof cache_json,
                "{\"cache\":{\"hits\":%llu,\"misses\":%llu,\"evictions\":%llu,\"entries\":%zu,"
                "\"hit_rate\":%.17g},",
                static_cast<unsigned long long>(stats.hits),
                static_cast<unsigned long long>(stats.misses),
                static_cast<unsigned long long>(stats.evictions), stats.entries,
                stats.hit_rate());
  const JournalStats journal = journal_stats();
  char journal_json[320];
  std::snprintf(journal_json, sizeof journal_json,
                "\"journal\":{\"enabled\":%s,\"records_appended\":%llu,\"fsyncs\":%llu,"
                "\"rotations\":%llu,\"append_errors\":%llu,\"file_bytes\":%llu,"
                "\"synced_bytes\":%llu},\"uptime_seconds\":%.17g,",
                journal_enabled() ? "true" : "false",
                static_cast<unsigned long long>(journal.records_appended),
                static_cast<unsigned long long>(journal.fsyncs),
                static_cast<unsigned long long>(journal.rotations),
                static_cast<unsigned long long>(journal.append_errors),
                static_cast<unsigned long long>(journal.file_bytes),
                static_cast<unsigned long long>(journal.synced_bytes),
                elapsed_seconds(started_));
  // metrics_.to_json() is a non-empty object; splice the cache and journal
  // sections in front of its first field.
  return cache_json + (journal_json + metrics_.to_json().substr(1));
}

util::Expected<SnapshotStats> Broker::save_snapshot(const std::string& path) {
  // Compaction: freeze journal appends across export + save + rotate so a
  // concurrent solve's record cannot land in the old journal after the
  // export missed it (see journal_mutex_ in broker.hpp).
  std::lock_guard<std::mutex> lock(journal_mutex_);
  util::Expected<SnapshotStats> saved = service::save_snapshot(cache_, path);
  if (!saved.has_value()) return saved;
  metrics_.snapshot_saves.add(1);
  metrics_.snapshot_entries_saved.add(saved->entries);
  if (journal_) {
    util::Expected<JournalStats> rotated = journal_->rotate();
    if (!rotated.has_value()) {
      return util::make_error(rotated.error().code,
                              "snapshot committed to '" + path +
                                  "' but the journal rotation failed (replay stays idempotent): " +
                                  rotated.error().message);
    }
  }
  return saved;
}

util::Expected<SnapshotStats> Broker::load_snapshot(const std::string& path) {
  util::Expected<SnapshotStats> loaded = service::load_snapshot(cache_, path);
  if (loaded.has_value()) {
    metrics_.snapshot_loads.add(1);
    metrics_.snapshot_entries_loaded.add(loaded->entries);
  }
  return loaded;
}

}  // namespace relap::service
