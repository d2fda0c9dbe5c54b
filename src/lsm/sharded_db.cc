#include "lsm/sharded_db.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <thread>

#include "lsm/manifest.h"
#include "util/env.h"

namespace endure::lsm {

namespace {

std::string ShardDir(const std::string& root, int shard) {
  return root + "/shard_" + std::to_string(shard);
}

/// Publishes the deployment root manifest: shard count + the tuning the
/// deployment currently runs (shared by Open's fresh path and
/// ApplyTuning so the two sites can never drift).
Status WriteRootManifest(const std::string& root_dir, const Options& opts,
                         int num_shards) {
  ManifestData root;
  root.RecordTuningFrom(opts);
  root.kind = kManifestKindShardedRoot;
  root.num_shards = num_shards;
  return WriteManifest(root_dir + "/" + kManifestFileName, root);
}

/// Runs fn(0), ..., fn(n-1) across up to `workers` threads (per-shard
/// work: recovery, bulk load) and returns the status of the lowest index
/// that failed, whatever order the workers finished in.
Status ForEachShard(size_t n, size_t workers,
                    const std::function<Status(size_t)>& fn) {
  std::vector<Status> results(n);
  ParallelFor(n, workers, [&fn, &results](size_t i) { results[i] = fn(i); });
  for (const Status& s : results) {
    ENDURE_RETURN_IF_ERROR(s);
  }
  return Status::OK();
}

}  // namespace

ShardedDB::ShardedDB(const Options& options, bool defer_shards)
    : options_(options) {
  if (options_.durability &&
      options_.wal_sync_mode == WalSyncMode::kBackground) {
    flush_service_ =
        std::make_unique<WalFlushService>(options_.wal_sync_interval_ms);
  }
  if (options_.block_cache_bytes > 0) {
    // One cache for the whole deployment: shards share the byte budget
    // by demand, not by a fixed per-shard split.
    cache_ = std::make_unique<BlockCache>(options_.block_cache_bytes);
  }
  shards_.reserve(static_cast<size_t>(options_.num_shards));
  if (!defer_shards) {
    for (int i = 0; i < options_.num_shards; ++i) {
      auto shard = std::make_unique<Shard>();
      // Ephemeral shards share storage_dir: FilePageStore segment names
      // carry a per-instance tag, so no subdirectories are needed.
      shard->store = MakePageStore(options_.entries_per_page, &shard->stats,
                                   static_cast<int>(options_.backend),
                                   options_.storage_dir);
      if (cache_ != nullptr) shard->store->set_block_cache(cache_.get());
      shard->tree = std::make_unique<LsmTree>(options_, shard->store.get(),
                                              &shard->stats);
      shards_.push_back(std::move(shard));
    }
  }
  if (options_.background_maintenance) {
    const size_t workers =
        options_.maintenance_threads > 0
            ? static_cast<size_t>(options_.maintenance_threads)
            : std::min(static_cast<size_t>(options_.num_shards),
                       DefaultParallelism());
    pool_ = std::make_unique<ThreadPool>(workers);
    CompactionScheduler::Config cfg;
    // Admission as wide as the pool: the pool's FIFO queue then never
    // holds a waiting job, so it can never invert the scheduler's
    // priority order.
    cfg.max_parallel = workers;
    cfg.rate_bytes_per_sec = options_.compaction_rate_bytes_per_sec;
    scheduler_ = std::make_unique<CompactionScheduler>(pool_.get(), cfg,
                                                       &sched_stats_);
  }
}

ShardedDB::~ShardedDB() {
  // Stop the scheduler first: queued and delayed jobs are dropped and
  // in-flight ones cannot reschedule. pool_ (declared last) is then
  // destroyed, draining its in-flight jobs while the shards and the
  // scheduler they reference are still alive. Durable shards sync their
  // WALs in the tree teardown (clean close loses nothing, whatever the
  // sync mode).
  if (scheduler_ != nullptr) scheduler_->Stop();
}

StatusOr<std::unique_ptr<ShardedDB>> ShardedDB::Open(const Options& options) {
  ENDURE_RETURN_IF_ERROR(options.Validate());
  if (!options.durability) {
    return std::unique_ptr<ShardedDB>(new ShardedDB(options));
  }

  // Durable open: the deployment root holds a root manifest (shard count
  // + last applied tuning) and one subdirectory per shard.
  Options opts = options;
  ENDURE_RETURN_IF_ERROR(EnsureDir(opts.storage_dir));
  auto lock_or =
      FileLock::Acquire(opts.storage_dir + "/" + kLockFileName);
  if (!lock_or.ok()) return lock_or.status();
  ManifestData root;
  auto root_existing_or = LoadDurableState(opts.storage_dir, &opts, &root);
  if (!root_existing_or.ok()) return root_existing_or.status();
  if (*root_existing_or) {
    // Without the kind check a single tree's directory opened with
    // num_shards=1 would recover a fresh empty shard_0 and ignore the
    // tree's data sitting at the root.
    if (root.kind != kManifestKindShardedRoot) {
      return Status::InvalidArgument(
          "storage_dir holds a single-tree manifest at its root, not a "
          "ShardedDB deployment");
    }
    if (root.num_shards != opts.num_shards) {
      return Status::InvalidArgument(
          "deployment was created with " + std::to_string(root.num_shards) +
          " shards; num_shards is immutable across reopens");
    }
  } else {
    // Publish the root manifest BEFORE any shard directory exists: a
    // crash mid-first-open must never leave recovered shard state
    // without the num_shards record that guards reopens.
    ENDURE_RETURN_IF_ERROR(
        WriteRootManifest(opts.storage_dir, opts, opts.num_shards));
  }

  auto db =
      std::unique_ptr<ShardedDB>(new ShardedDB(opts, /*defer_shards=*/true));
  db->lock_ = std::move(lock_or).value();

  // Recover the shard directories concurrently: per-shard recovery is
  // fully independent (own manifest, WAL, page store and statistics),
  // so restart latency is the max over shards, not the sum. `slots` is
  // declared after `db` on purpose — if any shard fails, the return
  // below destroys the recovered shards FIRST (their WAL writers
  // deregister from the flush service, threads and fds close) and the
  // ShardedDB (flush service, maintenance pool, LOCK file) after: a
  // failed open leaks nothing and leaves the deployment reopenable.
  std::vector<std::unique_ptr<Shard>> slots(
      static_cast<size_t>(opts.num_shards));
  const size_t workers =
      opts.recovery_threads > 0
          ? static_cast<size_t>(opts.recovery_threads)
          : std::min(static_cast<size_t>(opts.num_shards),
                     DefaultParallelism());
  ShardedDB* raw = db.get();
  ENDURE_RETURN_IF_ERROR(ForEachShard(
      static_cast<size_t>(opts.num_shards), workers,
      [raw, &opts, &slots](size_t i) {
        return raw->RecoverShard(opts, static_cast<int>(i), &slots[i]);
      }));
  for (auto& shard : slots) db->shards_.push_back(std::move(shard));

  // Resume interrupted work: shards that recovered mid-migration (or
  // with a sealed buffer rebuilt by replay, or a level a failed drain
  // left unmerged) reschedule immediately on the scheduler; without one
  // (foreground mode) the same units drain here, mirroring ApplyTuning's
  // foreground behaviour.
  for (auto& shard_ptr : db->shards_) {
    Shard* shard = shard_ptr.get();
    std::lock_guard<std::mutex> lock(shard->mu);
    if (db->scheduler_ != nullptr) {
      db->MaybeScheduleMaintenance(shard);
    } else {
      // A failed unit fails the open as a whole: nothing is lost (the
      // level kept its runs) and a reopen retries from exactly here.
      ENDURE_RETURN_IF_ERROR(shard->tree->DrainMaintenance());
    }
  }
  return db;
}

Status ShardedDB::RecoverShard(const Options& root_opts, int index,
                               std::unique_ptr<Shard>* out) {
  Options shard_opts = root_opts;
  shard_opts.storage_dir = ShardDir(root_opts.storage_dir, index);
  ENDURE_RETURN_IF_ERROR(EnsureDir(shard_opts.storage_dir));
  // A crash mid-ApplyTuning can leave shards at mixed tunings; each
  // shard resumes its own persisted state (a later ApplyTuning
  // re-levels the deployment).
  ManifestData m;
  auto existing_or =
      LoadDurableState(shard_opts.storage_dir, &shard_opts, &m);
  if (!existing_or.ok()) return existing_or.status();
  auto shard = std::make_unique<Shard>();
  shard->store = MakePageStore(shard_opts.entries_per_page, &shard->stats,
                               static_cast<int>(shard_opts.backend),
                               shard_opts.storage_dir,
                               /*persistent=*/true);
  // Thread-safe across concurrent shard recoveries: registration is one
  // atomic id allocation.
  if (cache_ != nullptr) shard->store->set_block_cache(cache_.get());
  shard->tree = std::make_unique<LsmTree>(shard_opts, shard->store.get(),
                                          &shard->stats);
  ENDURE_RETURN_IF_ERROR(RecoverAndAttach(shard->tree.get(), m,
                                          *existing_or,
                                          shard_opts.storage_dir,
                                          flush_service_.get()));
  *out = std::move(shard);
  return Status::OK();
}

size_t ShardedDB::ShardForKey(Key key) const {
  // Fibonacci hashing: spreads sequential keys (the workload generators
  // use dense even keys) evenly across shards.
  uint64_t h = key * 0x9E3779B97F4A7C15ull;
  h ^= h >> 32;
  return static_cast<size_t>(h % shards_.size());
}

void ShardedDB::MaybeScheduleMaintenance(Shard* shard) {
  if (scheduler_ == nullptr || shard->maintenance_scheduled ||
      !shard->tree->Health().ok() || !shard->tree->HasMaintenanceWork()) {
    return;
  }
  shard->maintenance_scheduled = true;
  // Enqueue at the shard's CURRENT priority: a flush beats a migration
  // step beats a major compaction across all shards. Enqueue returns
  // false only during teardown; dropping the job is fine then.
  const bool queued =
      scheduler_->Enqueue(shard->tree->MaintenancePriority(),
                          [this, shard] { RunMaintenanceUnit(shard); });
  if (!queued) shard->maintenance_scheduled = false;
}

void ShardedDB::RunMaintenanceUnit(Shard* shard) {
  MaintenanceUnit unit;
  {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->maintenance_scheduled = false;
    if (!shard->tree->Health().ok()) {
      shard->cv.notify_all();
      return;
    }
    unit = shard->tree->PrepareMaintenance();
    if (unit.kind == MaintenanceUnit::Kind::kNone) {
      // Nothing pending (a foreground op may have drained the work, or a
      // resolved migration just cleared its flag). Do NOT reschedule —
      // that would spin; the next write re-arms maintenance.
      shard->cv.notify_all();
      return;
    }
  }

  // The expensive phase — merge/flush I/O — with the shard UNLOCKED:
  // foreground Get/Put/Scan proceed against the still-resident inputs.
  Status s = shard->tree->ExecuteMaintenance(&unit, scheduler_->limiter());

  {
    std::lock_guard<std::mutex> lock(shard->mu);
    if (s.ok()) s = shard->tree->InstallMaintenance(&unit);
    // Wake stalled writers now: the install may have cleared the sealed
    // buffer or shrunk level 1 below the threshold.
    shard->cv.notify_all();
  }
  // Durable publication — the manifest's fsyncs and rename, then the
  // unlinks it allows — with the shard UNLOCKED too: writers never wait
  // on the device behind a flush or compaction.
  if (s.ok()) s = shard->tree->PublishMaintenance(&unit);

  std::lock_guard<std::mutex> lock(shard->mu);
  if (s.ok()) {
    shard->maintenance_failures = 0;
    MaybeScheduleMaintenance(shard);
    return;
  }
  // Transient-until-proven-permanent: the failed unit left the tree
  // consistent (a discarded output frees its segment; the inputs stayed
  // resident), so count the failure and back off. Retry knobs come from
  // the tree's own options — reading options_ here would invert the
  // options_mu_ → shard->mu lock order.
  ++shard->stats.io_retries;
  const int failures = ++shard->maintenance_failures;
  const int base_ms = shard->tree->options().background_retry_base_ms;
  if (failures > shard->tree->options().background_max_retries) {
    // Retry budget exhausted: declare the fault permanent and latch the
    // shard read-only. No reschedule — the pending work stays resident
    // (and durable state valid) for a reopen to retry.
    shard->tree->LatchBackgroundError(s);
    shard->cv.notify_all();
    return;
  }
  // Park the retry on the scheduler's deadline queue. Unlike the old
  // sleep-on-the-worker backoff, this frees the pool immediately — other
  // shards' maintenance proceeds while this shard waits out its delay.
  shard->maintenance_scheduled = true;
  const uint64_t delay_ms = static_cast<uint64_t>(
      std::min(base_ms << std::min(failures - 1, 7), 1000));
  const bool queued = scheduler_->EnqueueDelayed(
      shard->tree->MaintenancePriority(), delay_ms,
      [this, shard] { RunMaintenanceUnit(shard); });
  if (!queued) shard->maintenance_scheduled = false;
}

void ShardedDB::MaybeArbitrate(uint64_t ops) {
  if (cache_ == nullptr) return;
  // A relaxed counter decides *when* to rebalance; crossing a 1024-op
  // boundary elects (at least) one writer. The try-lock below keeps the
  // election cheap when several cross at once.
  constexpr uint64_t kArbiterPeriod = 1024;
  const uint64_t before = arbiter_ops_.fetch_add(ops,
                                                 std::memory_order_relaxed);
  if (before / kArbiterPeriod == (before + ops) / kArbiterPeriod) return;
  const Options opts = options();  // options_mu_ only; no shard lock held
  if (opts.memory_budget_bytes == 0) return;
  std::unique_lock<std::mutex> lock(arbiter_mu_, std::try_to_lock);
  if (!lock.owns_lock()) return;  // a rebalance is already running

  const Statistics total = TotalStats();
  const uint64_t reads = total.gets.load() + total.range_queries.load();
  const uint64_t writes = total.writes.load();
  // Buffers never shrink below one small memtable per shard, whatever
  // the read share — a zero-capacity buffer would seal on every write.
  const uint64_t min_buffer_bytes =
      shards_.size() * 16 * sizeof(Entry);
  const ArbiterSplit split = ArbitrateMemory(
      opts.memory_budget_bytes, reads, writes, min_buffer_bytes);

  cache_->set_capacity(split.cache_bytes);
  const uint64_t per_shard_entries = std::max<uint64_t>(
      1, split.buffer_bytes / (shards_.size() * sizeof(Entry)));
  for (auto& shard_ptr : shards_) {
    Shard* shard = shard_ptr.get();
    std::lock_guard<std::mutex> shard_lock(shard->mu);
    shard->tree->SetBufferCapacity(per_shard_entries);
  }
  // Count a shift only when the split moved by more than 10% of the
  // budget — steady mixes should read as zero shifts, drifts as a few.
  const uint64_t delta = split.cache_bytes > last_cache_split_
                             ? split.cache_bytes - last_cache_split_
                             : last_cache_split_ - split.cache_bytes;
  if (delta * 10 > opts.memory_budget_bytes) {
    ++sched_stats_.arbiter_shifts;
    last_cache_split_ = split.cache_bytes;
  }
}

void ShardedDB::MaybeStallWrites(Shard* shard,
                                 std::unique_lock<std::mutex>* lock) {
  if (scheduler_ == nullptr) return;
  // Saturation: the write about to apply has nowhere to go (sealed
  // buffer pending AND active buffer full — background mode never
  // flushes inline) or level 1 has accumulated enough flushed runs
  // that reads are degrading faster than compaction is draining them.
  const auto saturated = [&] {
    const Options& topts = shard->tree->options();
    const size_t threshold =
        topts.l1_stall_runs > 0
            ? static_cast<size_t>(topts.l1_stall_runs)
            : static_cast<size_t>(topts.size_ratio) + 2;
    return (shard->tree->HasSealedMemtable() &&
            shard->tree->memtable().IsFull()) ||
           shard->tree->RunsInLevel(1) > threshold;
  };
  if (!saturated()) return;
  ++shard->stats.write_stalls;
  const auto start = std::chrono::steady_clock::now();
  while (saturated() && shard->tree->Health().ok() &&
         !scheduler_->stopped()) {
    MaybeScheduleMaintenance(shard);
    // Bounded slices rather than a bare wait: shutdown (scheduler Stop)
    // has no hook into per-shard cvs, so re-check its flag periodically.
    shard->cv.wait_for(*lock, std::chrono::milliseconds(5));
  }
  const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  shard->stats.compaction_stall_ms += static_cast<uint64_t>(waited.count());
}

Status ShardedDB::Put(Key key, Value value) {
  Shard* shard = shards_[ShardForKey(key)].get();
  Status s;
  {
    std::unique_lock<std::mutex> lock(shard->mu);
    MaybeStallWrites(shard, &lock);
    s = shard->tree->Put(key, value);
    MaybeScheduleMaintenance(shard);
  }
  MaybeArbitrate(1);
  return s;
}

Status ShardedDB::PutBatch(const std::vector<std::pair<Key, Value>>& pairs) {
  // Partition once, then one group commit per touched shard.
  std::vector<std::vector<std::pair<Key, Value>>> parts(shards_.size());
  for (const auto& pair : pairs) {
    parts[ShardForKey(pair.first)].push_back(pair);
  }
  Status first_error;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (parts[s].empty()) continue;
    Shard* shard = shards_[s].get();
    std::unique_lock<std::mutex> lock(shard->mu);
    // Backpressure checks once up front, so a batch may overshoot the
    // buffer by its own size — acceptable: batches group-commit and the
    // next write absorbs the stall.
    MaybeStallWrites(shard, &lock);
    // Keep going on error — the batch is documented as non-atomic across
    // shards, and one latched shard must not starve the healthy ones.
    const Status st = shard->tree->PutBatch(parts[s]);
    if (!st.ok() && first_error.ok()) first_error = st;
    MaybeScheduleMaintenance(shard);
  }
  MaybeArbitrate(pairs.size());
  return first_error;
}

Status ShardedDB::Delete(Key key) {
  Shard* shard = shards_[ShardForKey(key)].get();
  Status s;
  {
    std::unique_lock<std::mutex> lock(shard->mu);
    MaybeStallWrites(shard, &lock);
    s = shard->tree->Delete(key);
    MaybeScheduleMaintenance(shard);
  }
  MaybeArbitrate(1);
  return s;
}

std::optional<Value> ShardedDB::Get(Key key) {
  // No shard lock: the tree's snapshot protocol serves the read even
  // while this shard's writer or maintenance install holds the mutex.
  return shards_[ShardForKey(key)]->tree->Get(key);
}

StatusOr<std::vector<Entry>> ShardedDB::Scan(Key lo, Key hi) {
  std::vector<Entry> out;
  ENDURE_RETURN_IF_ERROR(Scan(lo, hi, [&out](const Entry& e) {
    out.push_back(e);
    return true;
  }));
  return out;
}

ShardedDB::ShardUnion::ShardUnion(
    const std::vector<std::unique_ptr<Shard>>& shards, Key lo, Key hi)
    : failed_(shards.size()) {
  cursors_.reserve(shards.size());
  for (size_t i = 0; i < shards.size(); ++i) {
    cursors_.emplace_back(shards[i]->tree.get(), lo, hi);
    if (!cursors_.back().status().ok()) {
      failed_ = i;  // the shards after it are never opened
      return;
    }
  }
  Pick();
}

void ShardedDB::ShardUnion::Pick() {
  current_ = nullptr;
  Key min = LsmTree::RangeCursor::kEnd;
  for (LsmTree::RangeCursor& cursor : cursors_) {
    if (cursor.key() < min) {
      min = cursor.key();
      current_ = &cursor;
    }
  }
}

void ShardedDB::ShardUnion::Next() {
  current_->Next();
  if (!current_->status().ok()) {
    failed_ = static_cast<size_t>(current_ - cursors_.data());
    current_ = nullptr;
    return;
  }
  Pick();
}

Status ShardedDB::ShardUnion::Finish() {
  if (failed_ == cursors_.size()) return Status::OK();
  // Errors surface in key order, but the contract names the
  // lowest-numbered failing shard: the shards below the one that failed
  // read the rest of the range to find out.
  for (size_t i = 0; i < failed_; ++i) {
    LsmTree::RangeCursor& cursor = cursors_[i];
    while (cursor.Valid()) cursor.Next();
    if (!cursor.status().ok()) return cursor.status();
  }
  return cursors_[failed_].status();
}

Status ShardedDB::Flush() {
  Status first_error;
  for (auto& shard_ptr : shards_) {
    Shard* shard = shard_ptr.get();
    std::lock_guard<std::mutex> lock(shard->mu);
    const Status s = shard->tree->Flush();
    if (!s.ok() && first_error.ok()) first_error = s;
    // A failed drain leaves a sealed buffer or an unmerged level behind;
    // hand it to the scheduler rather than wait for the next write.
    MaybeScheduleMaintenance(shard);
  }
  return first_error;
}

Status ShardedDB::Health() const {
  // No shard locks: the tree's health latch is thread-safe (lock-free
  // readers latch it too, so it cannot hide behind the shard mutex).
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard* shard = shards_[i].get();
    const Status s = shard->tree->Health();
    if (!s.ok()) {
      return Status(s.code(),
                    "shard " + std::to_string(i) + ": " + s.message());
    }
  }
  return Status::OK();
}

Status ShardedDB::Drain() {
  const Status flush_status = Flush();
  WaitForMaintenance();
  if (!flush_status.ok()) return flush_status;
  return Health();
}

std::vector<std::pair<std::string, uint64_t>> ShardedDB::RemoteStatsSnapshot()
    const {
  std::vector<std::pair<std::string, uint64_t>> out =
      TotalStats().Named();
  out.emplace_back("num_shards", static_cast<uint64_t>(shards_.size()));
  out.emplace_back("total_entries", TotalEntries());
  out.emplace_back("health_code",
                   static_cast<uint64_t>(Health().code()));
  const Options opts = options();
  out.emplace_back("size_ratio", static_cast<uint64_t>(opts.size_ratio));
  out.emplace_back("policy", static_cast<uint64_t>(opts.policy));
  out.emplace_back("buffer_entries", opts.buffer_entries);
  return out;
}

void ShardedDB::WaitForMaintenance() {
  // WaitIdle covers queued, delayed (backoff) and running jobs — a chain
  // of self-rescheduling units counts as continuously active, so the
  // return really is a quiescent point. The pool Wait then covers any
  // job admitted in the last instant.
  if (scheduler_ != nullptr) scheduler_->WaitIdle();
  if (pool_ != nullptr) pool_->Wait();
}

Status ShardedDB::BulkLoad(
    const std::vector<std::pair<Key, Value>>& sorted_pairs) {
  if (TotalEntries() != 0) {
    return Status::FailedPrecondition("BulkLoad requires an empty database");
  }
  for (size_t i = 1; i < sorted_pairs.size(); ++i) {
    if (sorted_pairs[i - 1].first >= sorted_pairs[i].first) {
      return Status::InvalidArgument(
          "BulkLoad input must be strictly ascending by key");
    }
  }
  const size_t n = sorted_pairs.size();
  const size_t workers = std::min(shards_.size(), DefaultParallelism());
  // Routing: worker c lists where each shard's pairs sit in the c-th
  // contiguous chunk of the input, so every key is hashed once whatever
  // the shard count, and each list is in input order.
  std::vector<std::vector<std::vector<size_t>>> at(
      workers, std::vector<std::vector<size_t>>(shards_.size()));
  ParallelFor(workers, workers, [&](size_t c) {
    const size_t begin = n * c / workers;
    const size_t end = n * (c + 1) / workers;
    // Keys hash evenly: an eighth of slack keeps the lists from regrowing.
    const size_t expected = (end - begin) / shards_.size();
    for (std::vector<size_t>& list : at[c]) {
      list.reserve(expected + expected / 8 + 1);
    }
    for (size_t i = begin; i < end; ++i) {
      at[c][ShardForKey(sorted_pairs[i].first)].push_back(i);
    }
  });
  // Shards load concurrently, as Open recovers them: each has its own
  // tree, page store and manifest, so the load takes the slowest shard's
  // time rather than the sum. Each shard gathers its pairs just before it
  // loads them, so a worker holds one shard's entries at a time.
  return ForEachShard(
      shards_.size(), workers, [this, &sorted_pairs, &at](size_t s) {
        size_t total = 0;
        for (const auto& chunk : at) total += chunk[s].size();
        std::vector<Entry> part;
        part.reserve(total);
        for (auto& chunk : at) {
          for (const size_t i : chunk[s]) {
            const auto& [key, value] = sorted_pairs[i];
            part.push_back(Entry{key, /*seq=*/0, value, EntryType::kValue});
          }
          std::vector<size_t>().swap(chunk[s]);
        }
        if (part.empty()) return Status::OK();
        Shard* shard = shards_[s].get();
        std::lock_guard<std::mutex> lock(shard->mu);
        // Re-check emptiness under the shard lock: a Put racing BulkLoad
        // must surface as this error (possibly after other shards
        // loaded), never as the tree's empty-precondition abort.
        if (shard->tree->TotalEntries() != 0) {
          return Status::FailedPrecondition(
              "BulkLoad raced a concurrent write; shard no longer empty");
        }
        // A failed shard load stays empty (all-or-nothing per shard); the
        // caller may retry the whole load after clearing the loaded
        // shards.
        return shard->tree->BulkLoad(part);
      });
}

Status ShardedDB::ApplyTuning(const Options& new_options) {
  ENDURE_RETURN_IF_ERROR(new_options.Validate());
  // Serialize concurrent retunes (and the options_ publication below):
  // interleaved per-shard Reconfigures from two applies would leave the
  // deployment at mixed tunings.
  std::lock_guard<std::mutex> apply_lock(options_mu_);
  // Validate the immutable knobs up front so the per-shard loop below can
  // never fail half-applied (LsmTree::Reconfigure re-checks the same
  // set plus page geometry).
  if (new_options.num_shards != options_.num_shards) {
    return Status::InvalidArgument(
        "num_shards cannot change on a live database");
  }
  if (new_options.entries_per_page != options_.entries_per_page) {
    return Status::InvalidArgument(
        "entries_per_page is fixed at open (page geometry is shared with "
        "the page stores)");
  }
  if (new_options.backend != options_.backend ||
      new_options.storage_dir != options_.storage_dir) {
    return Status::InvalidArgument(
        "storage backend and directory cannot change on a live database");
  }
  if (new_options.background_maintenance !=
      options_.background_maintenance) {
    return Status::InvalidArgument(
        "background_maintenance cannot change on a live database");
  }
  if (new_options.durability != options_.durability ||
      new_options.wal_sync_mode != options_.wal_sync_mode ||
      new_options.wal_sync_interval_ms != options_.wal_sync_interval_ms) {
    return Status::InvalidArgument(
        "durability and WAL sync settings cannot change on a live "
        "database");
  }
  if (new_options.maintenance_threads != options_.maintenance_threads) {
    return Status::InvalidArgument(
        "maintenance_threads is fixed at open (the pool is sized once)");
  }
  if (new_options.block_cache_bytes > 0 && cache_ == nullptr) {
    return Status::InvalidArgument(
        "block_cache_bytes cannot be enabled after open (the cache and "
        "its page-store registrations are built at open); reopen with a "
        "non-zero cache to enable it");
  }
  if (options_.durability) {
    // Republish the root manifest BEFORE touching any shard: the only
    // fallible durable step happens while the old tuning is still fully
    // in force, so an error here honors the "on apply error the DB
    // keeps its previous tuning" contract. (A crash after this write
    // but mid-loop is the documented mixed-tuning state: each shard
    // resumes its own manifest and the next ApplyTuning re-levels.)
    ENDURE_RETURN_IF_ERROR(WriteRootManifest(
        options_.storage_dir, new_options, options_.num_shards));
  }

  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard* shard = shards_[i].get();
    // Durable shards live in per-shard subdirectories; address each
    // tree's Reconfigure at its own placement (immutable per tree).
    Options shard_next = new_options;
    if (options_.durability) {
      shard_next.storage_dir =
          ShardDir(options_.storage_dir, static_cast<int>(i));
    }
    std::lock_guard<std::mutex> lock(shard->mu);
    // Cheap under the lock: Reconfigure retargets the buffer and bumps
    // the epoch; the structural migration runs in background steps. A
    // failure here (an I/O error flushing/persisting, or a latched
    // shard) leaves the deployment at mixed tunings — shards before
    // this one run the new tuning, this one and later keep the old —
    // which is exactly the documented crash-mid-ApplyTuning state:
    // every shard is individually consistent, and the next ApplyTuning
    // (or a reopen) re-levels the deployment. options_ keeps the old
    // tuning so a retry revalidates and republishes from scratch.
    const Status s = shard->tree->Reconfigure(shard_next);
    if (!s.ok()) {
      return Status(s.code(),
                    "ApplyTuning failed at shard " + std::to_string(i) +
                        " of " + std::to_string(shards_.size()) +
                        " (earlier shards run the new tuning; retry "
                        "re-levels): " + s.message());
    }
    if (scheduler_ != nullptr) {
      MaybeScheduleMaintenance(shard);
    } else {
      // Foreground mode: converge this shard's structure inline (the
      // caller opted out of background work entirely).
      const Status ms = shard->tree->DrainMaintenance();
      if (!ms.ok()) {
        return Status(ms.code(),
                      "ApplyTuning migration failed at shard " +
                          std::to_string(i) + " (state remains "
                          "consistent; retry resumes): " + ms.message());
      }
    }
  }
  options_ = new_options;
  // Live-retune the shared merge throttle: in-flight Acquires pick the
  // new rate up within one wait slice.
  if (scheduler_ != nullptr) {
    scheduler_->limiter()->set_rate(options_.compaction_rate_bytes_per_sec);
  }
  // Live-retune the cache budget (0 turns it into a pass-through without
  // dropping the registrations). Under a memory budget the arbiter
  // re-splits from here on its next period.
  if (cache_ != nullptr) {
    cache_->set_capacity(options_.block_cache_bytes);
  }
  return Status::OK();
}

void ShardedDB::CrashForTesting() {
  // Stop the scheduler first (queued/delayed jobs and rate-limiter waits
  // are dropped), then Shutdown — not reset — the pool: in-flight jobs
  // finish — the crash point is after them — and may still read pool_
  // and scheduler_ while they wind down, so neither pointer may be
  // mutated under their feet.
  if (scheduler_ != nullptr) scheduler_->Stop();
  if (pool_ != nullptr) pool_->Shutdown();
  for (auto& shard_ptr : shards_) {
    Shard* shard = shard_ptr.get();
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->tree->CrashForTesting();
  }
}

MigrationProgress ShardedDB::Progress() const {
  MigrationProgress total;
  for (auto& shard_ptr : shards_) {
    Shard* shard = shard_ptr.get();
    std::lock_guard<std::mutex> lock(shard->mu);
    total.Accumulate(shard->tree->Progress());
  }
  return total;
}

Statistics ShardedDB::TotalStats() const {
  Statistics total;
  for (const auto& shard : shards_) total.Accumulate(shard->stats);
  total.Accumulate(sched_stats_);  // scheduler counters are DB-wide
  return total;
}

Statistics ShardedDB::ShardStats(size_t shard) const {
  return shards_[shard]->stats;
}

uint64_t ShardedDB::TotalEntries() const {
  uint64_t total = 0;
  for (auto& shard_ptr : shards_) {
    Shard* shard = shard_ptr.get();
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->tree->TotalEntries();
  }
  return total;
}

}  // namespace endure::lsm
