// Copyright (c) endure-cpp authors. Licensed under the MIT license.
//
// A small fixed-size thread pool for embarrassingly parallel work (the
// solver's multi-start restarts, benchmark sweeps). Tasks are plain
// std::function<void()>; callers coordinate results themselves (e.g. by
// writing into pre-sized slots) and call Wait() for a barrier.

#ifndef ENDURE_UTIL_THREAD_POOL_H_
#define ENDURE_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/macros.h"

namespace endure {

/// Fixed-size worker pool. Destruction waits for all submitted tasks.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>= 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();
  ENDURE_DISALLOW_COPY_AND_ASSIGN(ThreadPool);

  /// Enqueues a task. Tasks must not throw. Aborts if the pool is
  /// shutting down — use TrySubmit from code that may race destruction.
  void Submit(std::function<void()> task);

  /// Like Submit, but returns false (dropping the task) when the pool is
  /// shutting down. Lets self-rescheduling maintenance jobs race pool
  /// destruction safely: the drop is fine because the owner is being torn
  /// down anyway.
  bool TrySubmit(std::function<void()> task);

  /// Blocks until every submitted task has finished executing.
  void Wait();

  /// Stops accepting tasks, drains the already-queued ones and joins
  /// the workers. Idempotent; the destructor calls it. Afterwards
  /// TrySubmit returns false (self-rescheduling jobs stop), so a crash
  /// simulation can freeze maintenance at its current point without
  /// destroying a pool object concurrent jobs may still be consulting.
  void Shutdown();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  size_t in_flight_ = 0;  ///< queued + currently executing
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;
};

/// Number of workers to use by default: hardware concurrency, at least 1.
size_t DefaultParallelism();

/// Runs fn(0), ..., fn(n-1) across at most `max_threads` pool workers and
/// returns once every index has run. With n <= 1 or max_threads <= 1 the
/// calls run inline on the caller's thread (no pool, deterministic order)
/// — the serial baseline ShardedDB's recovery benchmark measures against.
/// `fn` must not throw; indices may run in any order, so per-index
/// results belong in pre-sized slots (the Wait inside is the barrier
/// that makes reading them back race-free).
void ParallelFor(size_t n, size_t max_threads,
                 const std::function<void(size_t)>& fn);

}  // namespace endure

#endif  // ENDURE_UTIL_THREAD_POOL_H_
