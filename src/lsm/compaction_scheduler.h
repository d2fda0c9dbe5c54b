// Copyright (c) endure-cpp authors. Licensed under the MIT license.
//
// A priority scheduler for background maintenance jobs. ShardedDB enqueues
// one job per shard that has pending work; the scheduler admits at most
// `max_parallel` of them to the thread pool at a time, strictly by
// priority (flush = 0 beats migration step = 1 beats major compaction = 2,
// FIFO within a priority). Keeping admission narrower than the pool means
// the pool's FIFO queue can never invert priorities — a job only enters
// the pool when it is the most urgent job waiting.
//
// Failed jobs retry via EnqueueDelayed: the job is parked on a deadline
// min-heap serviced by a timer thread and re-enters the priority queue
// when its deadline passes. No worker sleeps while a job waits out its
// backoff, so one shard's retry storm cannot starve other shards (the bug
// this scheduler replaces: RunMaintenance slept its backoff ON a pool
// worker).
//
// The scheduler also owns the merge RateLimiter shared by every admitted
// compaction, so ApplyTuning can retune throughput for all shards in one
// place.

#ifndef ENDURE_LSM_COMPACTION_SCHEDULER_H_
#define ENDURE_LSM_COMPACTION_SCHEDULER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "lsm/compaction.h"
#include "lsm/statistics.h"
#include "util/macros.h"

namespace endure {
class ThreadPool;
}  // namespace endure

namespace endure::lsm {

/// Priority-ordered admission gate in front of a ThreadPool, plus a timer
/// for deadline-based retry requeues and the shared merge RateLimiter.
/// Thread-safe. The owner must keep the pool alive until after Stop() and
/// the pool's own shutdown have both completed (jobs in flight call back
/// into the scheduler when they finish).
class CompactionScheduler {
 public:
  struct Config {
    /// Jobs admitted to the pool concurrently (>= 1).
    size_t max_parallel = 1;

    /// Aggregate merge throttle in bytes/sec; 0 = unlimited.
    uint64_t rate_bytes_per_sec = 0;
  };

  /// `stats` receives sched_jobs / sched_requeues / sched_queue_peak;
  /// may be null. The pool is borrowed, not owned.
  CompactionScheduler(ThreadPool* pool, const Config& config,
                      Statistics* stats);
  ~CompactionScheduler();
  ENDURE_DISALLOW_COPY_AND_ASSIGN(CompactionScheduler);

  /// Queues `fn` at `priority` (lower runs first; FIFO within equal
  /// priority). Returns false — dropping the job — after Stop(), so
  /// callers can fall back to inline maintenance.
  bool Enqueue(int priority, std::function<void()> fn);

  /// Queues `fn` to become runnable `delay_ms` from now (the retry/backoff
  /// path; counts as a sched_requeue). The delay is served by the timer
  /// thread — no pool worker is occupied while the job waits.
  bool EnqueueDelayed(int priority, uint64_t delay_ms,
                      std::function<void()> fn);

  /// Blocks until no job is queued, delayed, or running. A job that
  /// re-enqueues itself BEFORE returning (the shard maintenance loop)
  /// never lets the count dip to zero mid-cascade.
  void WaitIdle();

  /// Drops every queued and delayed job, releases rate-limiter waiters,
  /// and joins the timer thread. Jobs already handed to the pool keep
  /// running (the pool's own shutdown is the owner's barrier for those).
  /// Idempotent; the destructor calls it.
  void Stop();

  /// True after Stop(). Stalled writers poll this to abandon
  /// backpressure waits during shutdown.
  bool stopped() const { return stopped_.load(std::memory_order_acquire); }

  RateLimiter* limiter() { return &limiter_; }

 private:
  struct Job {
    int priority = 0;
    uint64_t seq = 0;  ///< FIFO tie-break within a priority
    std::function<void()> fn;
  };
  struct DelayedJob {
    std::chrono::steady_clock::time_point deadline;
    Job job;
  };

  /// Heap predicates for std::push_heap/pop_heap (top = front()).
  static bool ReadyAfter(const Job& a, const Job& b) {
    if (a.priority != b.priority) return a.priority > b.priority;
    return a.seq > b.seq;
  }
  static bool DelayedAfter(const DelayedJob& a, const DelayedJob& b) {
    return a.deadline > b.deadline;
  }

  /// Admits ready jobs while a pool slot is free (caller holds mu_).
  void DispatchLocked();

  /// Called on the pool worker when an admitted job returns.
  void OnJobFinished();

  /// Promotes delayed jobs whose deadline has passed.
  void TimerLoop();

  ThreadPool* const pool_;
  const size_t max_parallel_;
  Statistics* const stats_;
  RateLimiter limiter_;

  mutable std::mutex mu_;
  std::condition_variable timer_cv_;  ///< wakes TimerLoop (new job / stop)
  std::condition_variable idle_cv_;   ///< wakes WaitIdle
  std::vector<Job> ready_;            ///< heap: most urgent at front()
  std::vector<DelayedJob> delayed_;   ///< heap: earliest deadline at front()
  size_t in_pool_ = 0;                ///< jobs admitted and not yet finished
  size_t active_ = 0;                 ///< ready + delayed + in_pool
  uint64_t next_seq_ = 0;
  std::atomic<bool> stopped_{false};
  std::thread timer_;
};

}  // namespace endure::lsm

#endif  // ENDURE_LSM_COMPACTION_SCHEDULER_H_
