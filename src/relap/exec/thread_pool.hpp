#pragma once

/// \file thread_pool.hpp
/// A small fixed-size thread pool — the execution backbone of the parallel
/// solver hot paths (see parallel.hpp for the chunked primitives built on
/// top of it).
///
/// Design constraints, in order of importance:
///  * **Determinism first.** The pool never influences *what* is computed,
///    only *when*: work is pre-partitioned into an indexed task space and
///    tasks only write to their own slots, so results are independent of
///    scheduling. There is deliberately no work stealing and no per-thread
///    caching of results.
///  * **Caller participation.** `run()` blocks, and the calling thread works
///    through tasks alongside the pool. A pool constructed with 1 thread
///    therefore runs everything inline on the caller — the "serial" baseline
///    the determinism tests and scaling bench compare against — and nested
///    `run()` calls cannot deadlock: the inner caller can always drain its
///    own task space even when every pool thread is busy.
///  * **Exception safety.** The first exception thrown by a task is captured
///    and rethrown on the calling thread after the job completes.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace relap::exec {

/// Worker count used by `ThreadPool::shared()`: the `RELAP_THREADS`
/// environment variable when set to a positive integer, otherwise
/// `std::thread::hardware_concurrency()`; always at least 1.
[[nodiscard]] std::size_t default_thread_count();

class ThreadPool {
 public:
  /// A pool with parallelism `threads` (>= 1): the caller of `run()` counts
  /// as one of them, so `threads - 1` worker threads are spawned.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs `body(0) ... body(tasks - 1)`, each exactly once, distributed over
  /// the calling thread and the pool workers. Blocks until all tasks have
  /// finished; rethrows the first exception any task threw. Task indices are
  /// claimed in increasing order, but tasks run concurrently — they must not
  /// depend on each other.
  void run(std::size_t tasks, const std::function<void(std::size_t)>& body);

  /// The process-wide default pool, lazily constructed with
  /// `default_thread_count()` threads.
  [[nodiscard]] static ThreadPool& shared();

  /// `pool` if non-null, else the shared pool. The hot-path option structs
  /// carry an optional `ThreadPool*` resolved through this helper.
  [[nodiscard]] static ThreadPool& resolve(ThreadPool* pool) {
    return pool != nullptr ? *pool : shared();
  }

 private:
  struct Job;

  void worker_loop();
  /// Claims and runs tasks of `job` until its index space is exhausted.
  static void drain(Job& job);

  std::size_t thread_count_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::deque<std::shared_ptr<Job>> jobs_;
  bool stopping_ = false;
};

}  // namespace relap::exec
