// Copyright (c) endure-cpp authors. Licensed under the MIT license.
//
// Sort-merge compaction over whole runs (the classic policies of Section
// 2): reads every input page, consolidates matching keys keeping the most
// recent entry, optionally drops tombstones (bottom level), and writes the
// consolidated output run.
//
// Merges run off the tree's lock (the scheduler's prepare/execute/install
// protocol), so this layer also carries the shared token-bucket
// RateLimiter that bounds merge throughput in bytes/sec.

#ifndef ENDURE_LSM_COMPACTION_H_
#define ENDURE_LSM_COMPACTION_H_

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

#include "lsm/run.h"

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

/// Merges `inputs` (ordered newest source first) into a single run whose
/// Bloom filter is sized at `bits_per_entry`. All input pages are read and
/// all output pages written under IoContext::kCompaction. A successful
/// merge holding nullptr means every entry was consolidated away
/// (all-tombstone merge at the bottom level). An error — a failed input
/// page read (I/O or checksum) or a failed output write — abandons the
/// partial output run and leaves the inputs untouched.
///
/// The merge is one stream on the calling thread: it reads each input
/// page once, holds one read window per input and the output's staging
/// page, and charges `limiter` as it goes (null = unlimited; waited
/// milliseconds land in Statistics::rate_limited_ms).
StatusOr<std::shared_ptr<Run>> MergeRuns(
    PageStore* store, const std::vector<std::shared_ptr<Run>>& inputs,
    double bits_per_entry, bool drop_tombstones,
    RateLimiter* limiter = nullptr);

}  // namespace endure::lsm

#endif  // ENDURE_LSM_COMPACTION_H_
