// Copyright (c) endure-cpp authors. Licensed under the MIT license.
//
// Sort-merge compaction over whole runs (the classic policies of Section
// 2): reads every input page, consolidates matching keys keeping the most
// recent entry, optionally drops tombstones (bottom level), and writes the
// consolidated output run.
//
// Merges run off the tree's lock (the scheduler's prepare/execute/install
// protocol), so this layer also carries the execution controls: a shared
// token-bucket RateLimiter that bounds merge throughput in bytes/sec, and
// key-range partitioning that splits one large merge into parallel
// subtasks along fence-pointer boundaries.

#ifndef ENDURE_LSM_COMPACTION_H_
#define ENDURE_LSM_COMPACTION_H_

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

#include "lsm/run.h"

namespace endure {
class ThreadPool;
}  // namespace endure

namespace endure::lsm {

/// Token-bucket throttle shared by every merge of one DB: bytes drain at
/// `bytes_per_sec`, with a burst of one second's worth of tokens. Acquire
/// may drive the bucket negative — a large request waits only until the
/// bucket surfaces above zero, then borrows, which smooths big chunks
/// instead of stalling them for their full duration. Thread-safe.
class RateLimiter {
 public:
  /// `bytes_per_sec` of 0 means unlimited (Acquire returns immediately).
  explicit RateLimiter(uint64_t bytes_per_sec = 0);

  /// Blocks until `bytes` may proceed; returns the milliseconds waited.
  /// Returns 0 immediately when unlimited or stopped.
  uint64_t Acquire(uint64_t bytes);

  /// Live-retunes the rate (ApplyTuning); 0 releases all waiters.
  void set_rate(uint64_t bytes_per_sec);
  uint64_t rate() const;

  /// Permanently releases waiters and makes every future Acquire a no-op.
  /// Called on shutdown so a throttled merge cannot outlive its owner.
  void Stop();

 private:
  /// Adds tokens for the time since last_refill_ (caller holds mu_).
  void RefillLocked(std::chrono::steady_clock::time_point now);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  uint64_t rate_ = 0;     ///< bytes/sec; 0 = unlimited
  double tokens_ = 0.0;   ///< may go negative (borrowed burst)
  std::chrono::steady_clock::time_point last_refill_;
  bool stopped_ = false;
};

/// Execution controls for one merge. Default-constructed limits reproduce
/// the classic behaviour exactly: no throttling, no partitioning.
struct MergeLimits {
  /// Throttle charged as the merge streams (null = unlimited). Waited
  /// milliseconds are recorded in Statistics::rate_limited_ms.
  RateLimiter* limiter = nullptr;

  /// Pool for partition subtasks. The merge thread participates itself
  /// (RunSubtasks), so a null or busy pool degrades to sequential
  /// partitions, never a deadlock.
  ThreadPool* subtask_pool = nullptr;

  /// Upper bound on key-range partitions; <= 1 disables partitioning.
  size_t max_subtasks = 1;

  /// Merges smaller than this many total input pages stay unpartitioned
  /// (partition boundaries re-read their edge pages, which only pays off
  /// on large merges); 0 disables partitioning.
  size_t min_pages_to_partition = 256;
};

/// Merges `inputs` (ordered newest source first) into a single run whose
/// Bloom filter is sized at `bits_per_entry`. All input pages are read and
/// all output pages written under IoContext::kCompaction. A successful
/// merge holding nullptr means every entry was consolidated away
/// (all-tombstone merge at the bottom level). An error — a failed input
/// page read (I/O or checksum) or a failed output write — abandons the
/// partial output run and leaves the inputs untouched.
///
/// `limits` throttles the merge, and when it asks for partitioning and
/// the merge is large enough, the key space is cut at fence-pointer
/// boundaries of the largest input and the partitions merge in parallel
/// (each staging its slice in memory), then stream in key order through
/// one RunBuilder — the result is a single run, byte-identical in content
/// to the unpartitioned merge. Partitioned merges bump
/// Statistics::compactions_partitioned / compaction_subtasks.
StatusOr<std::shared_ptr<Run>> MergeRuns(
    PageStore* store, const std::vector<std::shared_ptr<Run>>& inputs,
    double bits_per_entry, bool drop_tombstones,
    const MergeLimits& limits = {});

}  // namespace endure::lsm

#endif  // ENDURE_LSM_COMPACTION_H_
