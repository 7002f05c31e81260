#pragma once

/// \file metrics.hpp
/// Lock-cheap observability for the solver service: counters and fixed
/// log-spaced latency histograms, aggregated into a `ServiceMetrics`
/// registry the broker updates on every request and exports as JSON.
///
/// Everything is a relaxed atomic — recording a sample is one or two
/// `fetch_add`s, no locks, so instrumentation cannot serialize the batch
/// dispatch it observes. The counters are monotonically increasing totals;
/// readers (`stats`/JSON export) see a near-consistent snapshot, which is
/// the usual contract for service metrics (individual counters are exact,
/// cross-counter invariants may be one in-flight request off).
///
/// Histogram buckets are log2-spaced: bucket i counts samples in
/// [2^(i-20), 2^(i-19)) seconds, i in 0..29 — ~1 microsecond up to ~512
/// seconds, with the first and last buckets absorbing under- and overflow.
/// Fixed buckets (rather than adaptive ones) keep `record()` branch-free
/// cheap and make exported histograms comparable across runs and hosts.
///
/// The per-request view of the broker spans (queue wait, canonicalize, cache
/// probe, solve, denormalize) travels in `Reply::spans` — see request.hpp.

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <string>

namespace relap::service {

/// Monotonic event counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) { bits_.store(std::bit_cast<std::uint64_t>(v), std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }

 private:
  std::atomic<std::uint64_t> bits_{std::bit_cast<std::uint64_t>(0.0)};
};

/// Histogram over seconds with the fixed log2-spaced buckets described in
/// the file comment, plus an exact sample count and a nanosecond-resolution
/// running total.
class LatencyHistogram {
 public:
  static constexpr int kBuckets = 30;
  /// log2 of the upper bound of bucket 0: bucket i covers
  /// [2^(i + kMinExponent), 2^(i + 1 + kMinExponent)).
  static constexpr int kMinExponent = -20;

  /// Upper bound (exclusive, seconds) of bucket `i`; the last bucket's bound
  /// is conceptually +inf but reported as its finite log boundary.
  [[nodiscard]] static double bucket_upper_bound(int i);

  /// Bucket index for a sample: floor(log2 seconds) shifted and clamped.
  /// Non-positive and non-finite samples land in bucket 0.
  [[nodiscard]] static int bucket_index(double seconds);

  void record(double seconds);

  [[nodiscard]] std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  [[nodiscard]] double total_seconds() const {
    return static_cast<double>(total_ns_.load(std::memory_order_relaxed)) * 1e-9;
  }
  [[nodiscard]] std::uint64_t bucket_count(int i) const {
    return buckets_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
  }

  /// {"count":N,"total_seconds":S,"buckets":[{"le":B,"count":C},...]} with
  /// zero-count buckets omitted.
  [[nodiscard]] std::string to_json() const;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> total_ns_{0};
};

/// The broker's metric registry: request/solve counters plus one histogram
/// per request lifecycle span. Cache hit/miss/eviction counts live in
/// `FrontCache` (single source of truth) and are merged into the JSON
/// export by `Broker::metrics_json`.
struct ServiceMetrics {
  Counter requests_total;       ///< requests entering admission
  Counter rejected_total;       ///< structured admission rejections
  Counter batches_total;        ///< dispatches: per solve/solve_batch call and per queue drain
  Counter deduped_total;        ///< batch members grouped onto another member's solve
  Counter solves_total;         ///< cache-miss dispatches into the solver stack
  Counter solve_errors_total;   ///< infeasible/budget outcomes of those solves
  Counter deadline_exceeded_total;  ///< requests rejected past their wall-clock budget
  Counter cancelled_total;          ///< solves cooperatively cancelled mid-flight
  Counter shed_total;               ///< queued requests shed by admission control
  Counter snapshot_saves;
  Counter snapshot_loads;
  Counter snapshot_entries_saved;
  Counter snapshot_entries_loaded;
  /// Startup-recovery side of the write-ahead journal (service/journal.hpp);
  /// the live append/fsync/rotation counters stay in `JournalStats` (single
  /// source of truth) and `Broker::metrics_json` merges both.
  Counter journal_records_replayed;        ///< intact records re-inserted on recovery
  Counter journal_records_discarded_torn;  ///< torn tails dropped on recovery
  Gauge recovery_seconds;                  ///< wall time of the last recover()

  LatencyHistogram queue_wait;    ///< solve_batched queued -> its batch's dispatch
  /// Admission on the caller's thread: caps, knobs and the full cache key,
  /// plus `prepare` when the request carries raw records.
  LatencyHistogram canonicalize;
  /// Canonicalization of one instance (`Broker::prepare`): once per session
  /// upload, once per raw-record request; never for one the caps refuse.
  LatencyHistogram prepare;
  LatencyHistogram cache_probe;   ///< memo-cache lookup
  LatencyHistogram solve;         ///< solver dispatch (misses only)
  LatencyHistogram denormalize;   ///< reply construction
  LatencyHistogram request;       ///< whole per-request pipeline
  /// Wire layer (service/server.hpp), aggregate only: the `trace` line is
  /// written before the reply body, so no reply can carry these two.
  LatencyHistogram render;  ///< solve reply text assembly in the session
  LatencyHistogram write;   ///< one response's socket send on the TCP front

  /// JSON object with the counters and histograms above (no cache section).
  [[nodiscard]] std::string to_json() const;
};

}  // namespace relap::service
