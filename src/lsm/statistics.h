// Copyright (c) endure-cpp authors. Licensed under the MIT license.
//
// I/O and operation statistics — the engine-side equivalent of the RocksDB
// statistics module the paper reads its measurements from (Section 8.1):
// logical page accesses for reads, pages flushed on writes, and pages read
// and written by compactions, kept per cause so experiments can attribute
// I/O to query classes.
//
// Counters are lock-free (relaxed atomics behind a uint64_t-shaped
// wrapper) so a ShardedDB can aggregate per-shard statistics while
// background maintenance jobs are still bumping them. Relaxed ordering is
// enough: counters never gate control flow, and cross-counter invariants
// are only asserted at quiescent points (after Wait/Flush barriers).

#ifndef ENDURE_LSM_STATISTICS_H_
#define ENDURE_LSM_STATISTICS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace endure::lsm {

/// A uint64_t counter that tolerates concurrent increments and reads.
/// Behaves like a plain integer in expressions (implicit conversion,
/// ++/+=/=), and is copyable — a copy snapshots the current value — so
/// `Statistics before = db->stats()` keeps working unchanged.
class RelaxedCounter {
 public:
  RelaxedCounter(uint64_t v = 0) : v_(v) {}  // NOLINT(runtime/explicit)
  RelaxedCounter(const RelaxedCounter& other) : v_(other.load()) {}
  RelaxedCounter& operator=(const RelaxedCounter& other) {
    v_.store(other.load(), std::memory_order_relaxed);
    return *this;
  }
  RelaxedCounter& operator=(uint64_t v) {
    v_.store(v, std::memory_order_relaxed);
    return *this;
  }
  operator uint64_t() const { return load(); }
  RelaxedCounter& operator++() {
    v_.fetch_add(1, std::memory_order_relaxed);
    return *this;
  }
  RelaxedCounter& operator+=(uint64_t d) {
    v_.fetch_add(d, std::memory_order_relaxed);
    return *this;
  }
  uint64_t load() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_;
};

/// Why a page access happened (controls which counters are bumped).
enum class IoContext {
  kPointQuery = 0,
  kRangeQuery = 1,
  kFlush = 2,
  kCompaction = 3,
  kBulkLoad = 4,
  kRecovery = 5,  ///< segment reads while rebuilding runs at open
};

/// Aggregate counters. Still a value type: cheap to snapshot and diff
/// (copies take relaxed snapshots of each counter).
struct Statistics {
  // --- page-level I/O ---
  RelaxedCounter pages_read = 0;              ///< all page reads
  RelaxedCounter pages_written = 0;           ///< all page writes
  RelaxedCounter point_pages_read = 0;        ///< page reads serving point queries
  RelaxedCounter range_pages_read = 0;        ///< page reads serving range queries
  RelaxedCounter range_seeks = 0;             ///< runs touched by range queries
  RelaxedCounter flush_pages_written = 0;     ///< pages written by memtable flushes
  RelaxedCounter compaction_pages_read = 0;   ///< pages read by compactions
  RelaxedCounter compaction_pages_written = 0;///< pages written by compactions
  RelaxedCounter bulk_load_pages_written = 0; ///< pages written during bulk load

  // --- filter / fence behaviour ---
  RelaxedCounter bloom_probes = 0;           ///< bloom filter membership tests
  RelaxedCounter bloom_negatives = 0;        ///< probes that skipped a run
  RelaxedCounter bloom_false_positives = 0;  ///< page reads that found nothing
  RelaxedCounter fence_skips = 0;            ///< runs skipped via min/max range

  // --- operations ---
  RelaxedCounter gets = 0;
  RelaxedCounter range_queries = 0;
  RelaxedCounter writes = 0;
  RelaxedCounter flushes = 0;
  RelaxedCounter compactions = 0;

  // --- live reconfiguration ---
  RelaxedCounter reconfigurations = 0;  ///< Reconfigure/ApplyTuning calls
  RelaxedCounter migration_steps = 0;   ///< migration-priority units installed

  // --- durability (WAL + manifest; see docs/durability.md) ---
  RelaxedCounter wal_records = 0;         ///< records appended to the WAL
  RelaxedCounter wal_bytes = 0;           ///< bytes committed to the WAL
  RelaxedCounter wal_syncs = 0;           ///< fsyncs issued on the WAL
  RelaxedCounter wal_rotations = 0;       ///< WAL generations rotated to
  RelaxedCounter manifest_writes = 0;     ///< manifest versions published
  RelaxedCounter recoveries = 0;          ///< opens that recovered state
  RelaxedCounter wal_replayed_entries = 0;///< entries replayed at recovery
  RelaxedCounter recovery_pages_read = 0; ///< pages read rebuilding runs

  // --- fault tolerance (see docs/operations.md) ---
  RelaxedCounter io_retries = 0;           ///< background jobs retried after an I/O error
  RelaxedCounter checksum_failures = 0;    ///< page CRC mismatches / truncated pages
  RelaxedCounter read_only_transitions = 0;///< shards latched into read-only degraded mode

  // --- compaction scheduler (see docs/architecture.md) ---
  RelaxedCounter compaction_stall_ms = 0;  ///< ms writers stalled on backpressure
  RelaxedCounter write_stalls = 0;         ///< Put/Delete calls that stalled
  RelaxedCounter rate_limited_ms = 0;      ///< ms merges waited on the rate limiter
  RelaxedCounter sched_jobs = 0;           ///< maintenance jobs admitted to the scheduler
  RelaxedCounter sched_requeues = 0;       ///< deadline-delayed retry requeues
  RelaxedCounter sched_queue_peak = 0;     ///< max jobs waiting in the priority queue (gauge)

  // --- lock-free read path + block cache (see docs/architecture.md) ---
  RelaxedCounter snapshot_acquires = 0;  ///< read snapshots taken by Get/Scan
  RelaxedCounter cache_hits = 0;         ///< block cache page hits
  RelaxedCounter cache_misses = 0;       ///< block cache lookups that missed
  RelaxedCounter cache_evictions = 0;    ///< pages evicted by the clock hand
  RelaxedCounter arbiter_shifts = 0;     ///< memory arbiter budget rebalances

  /// Records one page read attributed to `ctx`.
  void OnPageRead(IoContext ctx, uint64_t pages = 1);

  /// Records one page write attributed to `ctx`.
  void OnPageWrite(IoContext ctx, uint64_t pages = 1);

  /// Component-wise difference (this - baseline); used to measure a single
  /// workload session.
  Statistics Delta(const Statistics& baseline) const;

  /// Component-wise sum: folds `shard` into this. Used by ShardedDB to
  /// aggregate per-shard statistics.
  void Accumulate(const Statistics& shard);

  /// Flat (name, value) snapshot of every counter, in declaration order
  /// — the form the network STATS endpoint serves.
  std::vector<std::pair<std::string, uint64_t>> Named() const;
};

}  // namespace endure::lsm

#endif  // ENDURE_LSM_STATISTICS_H_
