// Copyright (c) endure-cpp authors. Licensed under the MIT license.
//
// Configuration of the endure::lsm storage engine — the from-scratch LSM
// tree used as the system-evaluation substrate (the paper uses RocksDB with
// event hooks that force exactly this textbook behaviour: classic
// leveling/tiering, per-level Monkey filters, direct I/O, no block cache).

#ifndef ENDURE_LSM_OPTIONS_H_
#define ENDURE_LSM_OPTIONS_H_

#include <cstdint>
#include <string>

#include "util/status.h"
#include "util/wal_sync_mode.h"

namespace endure::lsm {

/// Compaction policy of the engine (mirrors endure::Policy; duplicated so
/// the engine has no dependency on the tuner library).
enum class CompactionPolicy {
  kLeveling = 0,      ///< at most one run per level, eager merging
  kTiering = 1,       ///< up to T-1 runs per level, lazy merging
  kLazyLeveling = 2,  ///< Dostoevsky hybrid: bottom leveled, rest tiered
};

/// Bloom-filter memory allocation across levels.
enum class FilterAllocation {
  kMonkey = 0,   ///< optimal per-level false-positive rates (Eq. 11)
  kUniform = 1,  ///< equal bits-per-entry everywhere (classical baseline)
};

/// Storage backend for sorted runs.
enum class StorageBackend {
  kMemory = 0,  ///< in-memory pages with full I/O accounting (default)
  kFile = 1,    ///< file-backed pages via POSIX pread/pwrite
};

/// Engine configuration.
struct Options {
  /// Size ratio T between adjacent levels (>= 2). Fractional tunings are
  /// rounded up before deployment, as in the paper's Section 8.3.
  int size_ratio = 10;

  /// Compaction policy pi.
  CompactionPolicy policy = CompactionPolicy::kLeveling;

  /// Write buffer (memtable) capacity in entries (m_buf / E).
  uint64_t buffer_entries = 1024;

  /// Entries per page (B). Page reads/writes are the engine's I/O unit.
  uint64_t entries_per_page = 4;

  /// Bloom filter budget in bits per entry (h = m_filt / N).
  double filter_bits_per_entry = 5.0;

  /// How the filter budget is split across levels.
  FilterAllocation filter_allocation = FilterAllocation::kMonkey;

  /// When true (RocksDB behaviour), point and range lookups skip runs whose
  /// [min,max] key range cannot contain the target — the fence-pointer
  /// short-circuit the paper cites to explain its Fig. 8 range-session
  /// discrepancy. Disable to match the analytical model exactly.
  bool fence_pointer_skip = true;

  /// Storage backend for runs.
  StorageBackend backend = StorageBackend::kMemory;

  /// Directory for the file backend (ignored by the memory backend).
  /// ShardedDB gives each shard its own subdirectory underneath.
  std::string storage_dir = "/tmp/endure_lsm";

  /// Number of hash-partitioned shards a ShardedDB opens (>= 1). Each
  /// shard is an independent LsmTree with its own page store, statistics
  /// and memtable of `buffer_entries` entries. The experiment harness
  /// runs one shard.
  int num_shards = 1;

  /// Who runs the tree's maintenance units (flushes, compactions,
  /// migration steps); the units themselves are the same either way.
  /// When true ShardedDB's compaction scheduler runs them on its pool:
  /// Put/Delete seal a full buffer into an immutable slot that stays
  /// readable until a flush unit lands it (while one sealed buffer is
  /// pending, the active one absorbs writes past capacity and ShardedDB
  /// stalls writers). When false (default) the writer that fills the
  /// buffer runs them back to back on its own thread, preserving the
  /// single-threaded behaviour the experiments measure.
  bool background_maintenance = false;

  /// Crash-safe persistence (docs/durability.md): every write is logged
  /// to a per-tree write-ahead log before it is acknowledged, and every
  /// structural change (flush, compaction, migration step, retune)
  /// publishes a versioned manifest, so ShardedDB::Open on an existing
  /// storage_dir replays the WAL, rebuilds the levels and
  /// resumes the persisted tuning — including a mid-flight migration —
  /// instead of starting empty. Requires the file backend. Off by
  /// default: the experiments measure a volatile engine.
  bool durability = false;

  /// When an acknowledged write is guaranteed on the device (ignored
  /// unless `durability`). kNone trusts the page cache (fastest; clean
  /// close still syncs), kBackground bounds the loss window to
  /// wal_sync_interval_ms, kPerBatch fsyncs inside every commit — the
  /// mode the kill-point tests assert zero acked-write loss under.
  WalSyncMode wal_sync_mode = WalSyncMode::kBackground;

  /// Cadence of the background WAL fsyncs (kBackground only), >= 1. One
  /// util::WalFlushService thread per deployment syncs every shard's WAL
  /// serially, so the loss window is this interval plus the tail of the
  /// current sync pass (see docs/operations.md).
  int wal_sync_interval_ms = 10;

  /// Worker threads ShardedDB::Open uses to recover shard directories
  /// concurrently (per-shard recovery is fully independent, so restart
  /// latency is the max over shards instead of the sum). 0 (default)
  /// auto-sizes to min(num_shards, hardware threads); 1 forces the
  /// serial open the recovery benchmark baselines against. A fresh
  /// (non-recovering) durable open builds its shard directories on the
  /// same workers. Operational, not part of the persisted tuning: each
  /// restart may choose anew.
  int recovery_threads = 0;

  /// Background maintenance (flush/compaction/migration) retries a failed
  /// job this many times with exponential backoff before declaring the
  /// fault permanent and latching the shard read-only (see
  /// ShardedDB::Health and docs/operations.md). 0 latches on the first
  /// failure.
  int background_max_retries = 4;

  /// First retry backoff in milliseconds (doubles per attempt, capped at
  /// 1000ms), >= 1. Backoff never occupies a maintenance worker: the
  /// scheduler requeues the retry on a deadline (see
  /// docs/architecture.md, "Compaction scheduler").
  int background_retry_base_ms = 1;

  /// Background compaction I/O budget in bytes/second (0 = unlimited).
  /// Charged against merge reads and writes via a token bucket; memtable
  /// flushes are exempt (they bound write stalls, throttling them would
  /// amplify the stalls the limiter exists to prevent). Mutable via
  /// ApplyTuning. See docs/operations.md.
  uint64_t compaction_rate_bytes_per_sec = 0;

  /// Write-path backpressure threshold on level-1 run count (background
  /// maintenance only): a Put into a shard whose L1 holds more runs than
  /// this stalls (off the shard lock) until maintenance catches up.
  /// 0 = auto (size_ratio + 2). See docs/operations.md.
  int l1_stall_runs = 0;

  /// Worker threads of the ShardedDB maintenance pool. 0 = auto
  /// (min(num_shards, hardware threads)). Operational, not persisted.
  int maintenance_threads = 0;

  /// Capacity of the deployment-wide block cache in bytes (0 = off).
  /// The cache is shared by every shard's page store and serves
  /// checksum-verified pages to point and range queries only, so
  /// compaction/recovery I/O accounting stays deterministic. Mutable via
  /// ApplyTuning when the cache was enabled at open (capacity resize);
  /// enabling a cache on a deployment opened without one requires a
  /// reopen. See docs/operations.md.
  uint64_t block_cache_bytes = 0;

  /// One global memory budget in bytes arbitrated between the write
  /// buffers (num_shards memtables) and the block cache (0 = static
  /// split, arbiter off). When set, a MemoryArbiter periodically
  /// re-splits the budget to match the observed read/write mix: read-
  /// heavy phases grow the cache and shrink the buffers, write-heavy
  /// phases do the opposite. Requires block_cache_bytes > 0 (the initial
  /// cache share). Mutable via ApplyTuning under the same reopen rule as
  /// block_cache_bytes. See docs/operations.md.
  uint64_t memory_budget_bytes = 0;

  /// OK iff every knob is in range.
  Status Validate() const;
};

}  // namespace endure::lsm

#endif  // ENDURE_LSM_OPTIONS_H_
