// Copyright (c) endure-cpp authors. Licensed under the MIT license.
//
// The storage engine's public facade: hash-partitions the key space
// across Options::num_shards independent LsmTree shards, each guarded by
// its own mutex. Flushes, compactions and migration steps are the tree's
// maintenance units (prepare/execute/install/publish) in every mode; the
// mode decides who runs them. One shard without background maintenance
// is the single-threaded engine the paper's experiments measure: the
// writer runs the units inline, and ApplyTuning drains the migration
// before it returns. The server runs many shards with background
// maintenance: the units run through a CompactionScheduler (priority
// admission, rate limiting, deadline-based retry) on a util::ThreadPool,
// with merge I/O OFF the shard lock — foreground Get/Put only contend
// with the brief snapshot and run-list-swap phases. Writers that fill a
// shard's buffer seal it and return immediately; Get/Scan consult the
// sealed-but-unflushed buffer so an acknowledged write is always visible.
// Saturated shards (sealed buffer pending and the active buffer full, or
// too many level-1 runs) apply backpressure: writers stall, with the time
// accounted in Statistics::compaction_stall_ms. See docs/architecture.md
// ("Concurrency model") for the locking discipline and the
// maintenance-job lifecycle.

#ifndef ENDURE_LSM_SHARDED_DB_H_
#define ENDURE_LSM_SHARDED_DB_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "lsm/block_cache.h"
#include "lsm/compaction_scheduler.h"
#include "lsm/lsm_tree.h"
#include "util/env.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace endure::lsm {

/// A sharded, thread-safe database instance. All public operations may be
/// called concurrently from any number of threads; destruction must be
/// externally ordered after the last operation (as with any C++ object).
class ShardedDB {
 public:
  /// Opens a sharded database; fails on invalid options. With
  /// `options.background_maintenance`, a maintenance pool of
  /// min(num_shards, hardware threads) workers is started.
  ///
  /// With Options::durability, storage_dir is a deployment root holding
  /// one subdirectory per shard (`shard_<i>`, each with its own WAL and
  /// manifest) plus a root manifest recording the shard count and the
  /// last applied tuning. An existing deployment is recovered — the
  /// shard directories concurrently, on up to Options::recovery_threads
  /// workers (0 = auto), so restart latency is the max over shards
  /// rather than the sum: acknowledged writes replayed from the WALs,
  /// the persisted tuning resumed, and any in-flight migration
  /// resumed exactly where its last installed unit left off (on the
  /// maintenance pool, or drained inline before Open returns without
  /// one). If any shard fails to recover, the open fails as a whole
  /// with the error of the lowest-numbered failing shard (deterministic
  /// whatever the thread interleaving), and every already-recovered
  /// shard is torn down before return — no threads, WAL writers, file
  /// descriptors or the deployment LOCK outlive a failed open. The
  /// shard count is immutable across reopens. See docs/durability.md
  /// and docs/operations.md.
  static StatusOr<std::unique_ptr<ShardedDB>> Open(const Options& options);

  /// Drains in-flight maintenance jobs, then tears down the shards.
  ~ShardedDB();

  ENDURE_DISALLOW_COPY_AND_ASSIGN(ShardedDB);

  /// Inserts or updates a key. Acknowledged (OK) writes are immediately
  /// visible to Get/Scan (linearized by the shard mutex). Non-OK means
  /// the write was not acknowledged — typically the owning shard is in
  /// read-only degraded mode (see Health()).
  Status Put(Key key, Value value);

  /// Inserts or updates several keys, group-committing each shard's
  /// subset to its WAL in one write (+ at most one fsync). Not atomic
  /// across shards: a reader may observe a partially applied batch. On
  /// error the remaining shards' subsets are still applied (the batch
  /// was never atomic); the first failing shard's status is returned.
  Status PutBatch(const std::vector<std::pair<Key, Value>>& pairs);

  /// Deletes a key. Error contract as Put.
  Status Delete(Key key);

  /// Point lookup. Lock-free: never takes the shard mutex — the tree's
  /// snapshot protocol (one atomic load, counted in snapshot_acquires)
  /// serves the read concurrently with writers and maintenance installs
  /// on the same shard.
  std::optional<Value> Get(Key key);

  /// Range query over [lo, hi), streamed: calls `visit(const Entry&)` on
  /// each live entry in key order until it returns false or the range
  /// ends; no result is staged. Opening the scan opens one
  /// LsmTree::RangeCursor per shard, each on its shard's snapshot, and
  /// the shards' disjoint key sets make the scan one sorted union of
  /// those cursors. Lock-free like Get(); a point-in-time view per shard,
  /// not across shards, like an iterator over a sharded RocksDB
  /// deployment. Returns OK when the range ended or the visitor stopped.
  /// A page that cannot be read (I/O or checksum) ends the scan with the
  /// lowest-numbered failing shard's error (shards below the one that
  /// failed first read the rest of the range to find out), and that
  /// shard latches. Entries visited before a non-OK return are not an
  /// answer: the rest of the range would read as deleted keys.
  template <typename Visitor>
  Status Scan(Key lo, Key hi, Visitor&& visit);

  /// Range query over [lo, hi): the streamed scan's entries collected
  /// into a vector, or its error.
  StatusOr<std::vector<Entry>> Scan(Key lo, Key hi);

  /// Synchronously flushes every shard (sealed buffer first, then the
  /// active one, each with the merges it starts — LsmTree::Flush on the
  /// calling thread). Does not wait for previously scheduled background
  /// jobs; call WaitForMaintenance() first for a full barrier. On error
  /// the remaining shards are still flushed; the first failing shard's
  /// status is returned (no entry is lost — a failed shard keeps its
  /// sealed buffer or unmerged runs, and with background maintenance its
  /// scheduler job retries them).
  Status Flush();

  /// First shard-level storage failure (prefixed "shard <i>: "), or OK.
  /// A non-OK shard is in read-only degraded mode — its writes are
  /// rejected, its reads keep serving, the other shards are unaffected.
  /// Latched when a background job exhausts Options::background_max_retries
  /// or a foreground write-path I/O failure occurs; cleared only by
  /// reopening the deployment after the fault is fixed. Statistics
  /// io_retries / checksum_failures / read_only_transitions count the
  /// events (see docs/operations.md).
  Status Health() const;

  /// Serving-front-end drain hook: flushes every shard, waits out all
  /// scheduled maintenance (so sealed buffers, pending migrations and
  /// compactions converge) and returns Health(). A durable deployment is
  /// fully flushed and published afterwards — the state a network server
  /// wants the engine in between Server::Shutdown() and process exit, so
  /// the next open replays an empty WAL tail. Safe alongside concurrent
  /// traffic (it is Flush + WaitForMaintenance), though new writes
  /// arriving during the drain naturally reopen buffers.
  Status Drain();

  /// Named counter snapshot for remote observability — the STATS
  /// endpoint's payload: every aggregated Statistics counter (see
  /// Statistics::Named) plus deployment facts remote callers cannot
  /// derive themselves (num_shards, total_entries, health_code, and the
  /// current tuning's size_ratio / policy / buffer_entries). Lock-free
  /// relaxed reads, like TotalStats().
  std::vector<std::pair<std::string, uint64_t>> RemoteStatsSnapshot() const;

  /// Blocks until every scheduled maintenance job has run. A quiescent
  /// point: afterwards (absent concurrent writers) no sealed buffers
  /// remain scheduled, any pending tuning migration has fully converged
  /// (maintenance jobs reschedule themselves until it has), and
  /// statistics are stable.
  void WaitForMaintenance();

  /// Applies a new engine tuning to the running database without stopping
  /// reads or losing acknowledged writes. `new_options` describes one
  /// shard, exactly like the options passed to Open (bridge::MakeOptions
  /// with the same shard count produces it from a tuner Tuning):
  /// - Bloom bits-per-entry / filter allocation / fence_pointer_skip
  ///   apply to runs built from now on; resident runs keep their filters
  ///   until compacted (per-run tuning epochs track the migration —
  ///   see Progress()).
  /// - buffer_entries retargets every shard's seal threshold immediately.
  /// - size_ratio / policy changes migrate incrementally: each shard's
  ///   maintenance job reshapes one level per unit between serving
  ///   foreground traffic (with background_maintenance off, the same
  ///   units drain inline here, shard by shard).
  /// num_shards, entries_per_page, backend, storage_dir and
  /// background_maintenance are immutable; changing them returns
  /// InvalidArgument and leaves every shard untouched.
  Status ApplyTuning(const Options& new_options);

  /// Aggregated migration progress across shards (see MigrationProgress).
  /// Lock-step epochs: every ApplyTuning bumps all shards once.
  MigrationProgress Progress() const;

  /// Bulk loads strictly-ascending (key, value) pairs into empty shards,
  /// routing each pair to its shard (each shard's subsequence stays
  /// strictly ascending). An input that is not strictly ascending is
  /// refused before any shard loads. The same min(num_shards, hardware
  /// threads) workers first route one contiguous chunk of the input each
  /// (every key is hashed once), then load the shards concurrently, each
  /// shard gathering its pairs just before its load. Each shard is
  /// all-or-nothing: it ends fully loaded or empty. On failure, returns
  /// the error of the lowest-numbered failing shard; other shards may
  /// have loaded.
  Status BulkLoad(const std::vector<std::pair<Key, Value>>& sorted_pairs);

  /// Aggregated statistics across all shards: a lock-free relaxed
  /// snapshot (counters may be mid-update under concurrent load; at
  /// quiescent points the sums are exact).
  Statistics TotalStats() const;

  /// Snapshot of one shard's statistics.
  Statistics ShardStats(size_t shard) const;

  /// Entries across all shards (memtables, sealed buffers and runs).
  uint64_t TotalEntries() const;

  /// Which shard serves `key` (exposed for tests and routing layers).
  size_t ShardForKey(Key key) const;

  size_t num_shards() const { return shards_.size(); }

  /// Snapshot of the current engine options (replaced by ApplyTuning, so
  /// a copy is returned rather than a reference into racing state).
  Options options() const {
    std::lock_guard<std::mutex> lock(options_mu_);
    return options_;
  }

  /// Structural access to one shard's tree for tests/experiments. Only
  /// safe at quiescent points (no concurrent operations or maintenance).
  const LsmTree& shard_tree(size_t shard) const {
    return *shards_[shard]->tree;
  }

  /// The deployment-wide block cache, or null when Options::
  /// block_cache_bytes was 0 at open (exposed for tests and examples).
  BlockCache* block_cache() const { return cache_.get(); }

  /// Test hook: locks shard `i`'s maintenance mutex and hands the lock to
  /// the caller. Writers and maintenance on that shard block while it is
  /// held; lock-free Get/Scan must still complete — the contention
  /// regression test asserts exactly that.
  std::unique_lock<std::mutex> LockShardForTesting(size_t shard) {
    return std::unique_lock<std::mutex>(shards_[shard]->mu);
  }

  /// Simulates a *process* kill for the kill-point recovery tests: stops
  /// the maintenance pool (in-flight jobs finish — a thread cannot be
  /// killed mid-step; the crash point is after them), then drops every
  /// shard's WAL writer without the final flush/sync.
  /// Committed-but-unsynced write()s survive in the OS page cache, as
  /// they would a real process death — this does not simulate a machine
  /// crash losing them. The instance must only be destroyed
  /// afterwards.
  void CrashForTesting();

 private:
  struct Shard {
    std::mutex mu;  ///< guards tree, store contents and scheduling state
    /// Signalled whenever maintenance installs work (or the shard goes
    /// idle/unhealthy); stalled writers wait here.
    std::condition_variable cv;
    Statistics stats;
    std::unique_ptr<PageStore> store;
    std::unique_ptr<LsmTree> tree;
    /// True while a maintenance job is queued or running for this shard
    /// (at most one in flight per shard; the job re-checks for sealed
    /// work under the lock, so a foreground Flush racing it is benign).
    bool maintenance_scheduled = false;
    /// Consecutive background-maintenance failures (guarded by mu).
    /// Reset on success; when it exceeds Options::background_max_retries
    /// the shard's tree is latched read-only.
    int maintenance_failures = 0;
  };

  /// A scan: the union of one RangeCursor per shard, all opened (and
  /// snapshotted) up front. Keys are disjoint across shards, so the next
  /// entry is the smallest head, with no ties to break.
  class ShardUnion {
   public:
    ShardUnion(const std::vector<std::unique_ptr<Shard>>& shards, Key lo,
               Key hi);
    bool Valid() const { return current_ != nullptr; }
    const Entry& entry() const { return current_->entry(); }
    void Next();
    /// Call once Valid() is false: OK at the end of the range, else the
    /// lowest-numbered failing shard's error.
    Status Finish();

   private:
    /// Points current_ at the cursor with the smallest head (null when
    /// every cursor ended).
    void Pick();

    std::vector<LsmTree::RangeCursor> cursors_;
    LsmTree::RangeCursor* current_ = nullptr;
    /// The first cursor that failed, or cursors_.size().
    size_t failed_;
  };

  /// `defer_shards` leaves shards_ empty for Open's durable path, which
  /// builds each shard with its own (possibly recovered) options.
  explicit ShardedDB(const Options& options, bool defer_shards = false);

  /// Recovers (or freshly creates) shard `index`'s directory into
  /// `*out`: per-shard options merge, store + tree construction, WAL
  /// replay and durability attach. Touches no shared mutable state
  /// except the flush service's thread-safe registry, so Open may run
  /// one call per shard concurrently.
  Status RecoverShard(const Options& root_opts, int index,
                      std::unique_ptr<Shard>* out);

  /// Called with `shard->mu` held: enqueues a maintenance job on the
  /// scheduler if the shard has pending work (sealed buffer, pending
  /// migration, or a non-conforming level) and none is in flight, at the
  /// shard's current priority (flush 0 / migration step 1 / major
  /// compaction 2). Each job performs one bounded unit of work and
  /// reschedules itself while work remains — so a reconfiguration
  /// converges in bounded steps without ever holding a shard lock for a
  /// whole-tree rebuild.
  void MaybeScheduleMaintenance(Shard* shard);

  /// Body of a scheduled maintenance job, running the tree's four-phase
  /// protocol: PrepareMaintenance under the shard lock, ExecuteMaintenance
  /// (the merge/flush I/O) with the lock RELEASED, InstallMaintenance
  /// (the in-memory swap and a manifest capture) under the lock again,
  /// and PublishMaintenance (the manifest write and the unlinks it
  /// allows) with the lock released. Transient failures retry with
  /// exponential backoff (Options::background_retry_base_ms, doubling,
  /// capped at 1s) via the scheduler's deadline queue — no pool worker
  /// sleeps out the backoff — latching the shard read-only once
  /// Options::background_max_retries consecutive attempts failed.
  void RunMaintenanceUnit(Shard* shard);

  /// Snapshot of the execution controls for one maintenance job (rate
  /// limiter, subtask pool and partitioning knobs). Takes options_mu_
  /// only — call WITHOUT the shard lock held.
  MergeLimits MakeMergeLimits() const;

  /// Write-path hook for the memory arbiter: bumps the op counter by
  /// `ops` and, every ~1024 operations (when a memory budget is
  /// configured), re-splits Options::memory_budget_bytes between the
  /// block cache and the write buffers according to the observed
  /// read/write mix (ArbitrateMemory). Try-lock guarded — concurrent
  /// writers never queue behind a rebalance — and called with NO shard
  /// lock held (it takes shard locks itself to retarget buffers).
  void MaybeArbitrate(uint64_t ops);

  /// Called with `lock` held on shard->mu before applying a write:
  /// blocks while the shard is saturated (sealed buffer pending AND the
  /// active memtable full, or level 1 over Options::l1_stall_runs),
  /// releasing the lock so maintenance can drain. Accounts the wait in
  /// write_stalls / compaction_stall_ms. No-op without a scheduler.
  void MaybeStallWrites(Shard* shard, std::unique_lock<std::mutex>* lock);

  /// Serializes ApplyTuning calls and guards options_ (shard locks nest
  /// inside it; options() readers take only this).
  mutable std::mutex options_mu_;
  Options options_;
  /// Durable mode: exclusive LOCK-file guard on the deployment root,
  /// held for the instance's lifetime (one process per deployment).
  std::unique_ptr<FileLock> lock_;
  /// Durable kBackground mode: the one thread driving every shard's WAL
  /// fsyncs. Declared before shards_ so it outlives the writers
  /// registered with it.
  std::unique_ptr<WalFlushService> flush_service_;
  /// Deployment-wide sharded clock block cache (null when disabled).
  /// Declared before shards_ so it outlives the page stores registered
  /// with it (stores erase their segments from the cache on teardown).
  std::unique_ptr<BlockCache> cache_;
  /// Memory-arbiter state: a relaxed write-op counter (every ~1024 ops
  /// one writer re-splits the budget) and a try-lock so rebalances never
  /// serialize the write path. last_cache_split_ dedups shift counting.
  std::atomic<uint64_t> arbiter_ops_{0};
  std::mutex arbiter_mu_;
  uint64_t last_cache_split_ = 0;  ///< guarded by arbiter_mu_
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Scheduler-level counters (sched_jobs / sched_requeues /
  /// sched_queue_peak); folded into TotalStats(). Not per-shard: the
  /// scheduler is shared.
  Statistics sched_stats_;
  /// Admission gate + retry timer + shared merge rate limiter in front of
  /// pool_. Declared BEFORE pool_ so it is destroyed after: jobs the pool
  /// drains during its own destruction call back into the scheduler.
  /// (~ShardedDB stops it first so those jobs cannot reschedule.)
  std::unique_ptr<CompactionScheduler> scheduler_;
  /// Declared after shards_ so it is destroyed first: the destructor
  /// drains queued jobs while the shards they reference are still alive.
  std::unique_ptr<ThreadPool> pool_;
};

template <typename Visitor>
Status ShardedDB::Scan(Key lo, Key hi, Visitor&& visit) {
  ShardUnion scan(shards_, lo, hi);
  for (; scan.Valid(); scan.Next()) {
    if (!visit(scan.entry())) return Status::OK();
  }
  return scan.Finish();
}

}  // namespace endure::lsm

#endif  // ENDURE_LSM_SHARDED_DB_H_
