#pragma once

/// \file cancel.hpp
/// Cooperative cancellation for long-running solver drivers.
///
/// A `CancelToken` is an atomic flag plus an optional wall-clock deadline.
/// The parallel enumeration and heuristic drivers poll `cancelled()` at
/// chunk granularity (thousands of candidates per check, so the clock read
/// is off the per-candidate hot path) and abandon the remaining work when it
/// trips; the entry point then returns a structured "cancelled" error
/// instead of a result. Cancellation therefore never changes *what* a
/// successful solve computes — a cancelled solve has no result at all —
/// which keeps the bit-identical determinism contract intact.
///
/// The broker (service/broker.hpp) is the main producer: it arms one token
/// per dispatch group with the group's tightest deadline, so a solve that
/// outlives its request's wall-clock budget stops burning pool time instead
/// of completing into a reply nobody can use.

#include <atomic>
#include <chrono>
#include <cstdint>

namespace relap::util {

class CancelToken {
 public:
  using Clock = std::chrono::steady_clock;

  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Trips the token; `cancelled()` is true from now on.
  void cancel() noexcept { flag_.store(true, std::memory_order_relaxed); }

  /// Trips the token automatically once `Clock::now()` reaches `deadline`.
  void set_deadline(Clock::time_point deadline) noexcept {
    deadline_ns_.store(deadline.time_since_epoch().count(), std::memory_order_relaxed);
  }

  /// True iff `cancel()` was called or the deadline (if any) has passed.
  /// Reads the clock only when a deadline is armed.
  [[nodiscard]] bool cancelled() const noexcept {
    if (flag_.load(std::memory_order_relaxed)) return true;
    const std::int64_t deadline = deadline_ns_.load(std::memory_order_relaxed);
    return deadline != kNoDeadline && Clock::now().time_since_epoch().count() >= deadline;
  }

 private:
  static constexpr std::int64_t kNoDeadline = INT64_MAX;

  std::atomic<bool> flag_{false};
  std::atomic<std::int64_t> deadline_ns_{kNoDeadline};
};

/// `token && token->cancelled()` — the null-tolerant check the option
/// structs' `const CancelToken* cancel` members are polled through.
[[nodiscard]] inline bool cancel_requested(const CancelToken* token) noexcept {
  return token != nullptr && token->cancelled();
}

}  // namespace relap::util
