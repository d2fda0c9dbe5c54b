// Copyright (c) endure-cpp authors. Licensed under the MIT license.
//
// The LSM tree proper: memtable + exponentially-capacitated levels of
// sorted runs, with classic leveling or tiering compaction, per-level
// Monkey Bloom filters and full I/O accounting. This is the engine the
// system experiments (Section 8) run against, standing in for the paper's
// hook-instrumented RocksDB.

#ifndef ENDURE_LSM_LSM_TREE_H_
#define ENDURE_LSM_LSM_TREE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "lsm/compaction.h"
#include "lsm/manifest.h"
#include "lsm/memtable.h"
#include "lsm/monkey_allocator.h"
#include "lsm/options.h"
#include "lsm/page_store.h"
#include "lsm/run.h"
#include "util/wal.h"

namespace endure::lsm {

/// Per-level summary for diagnostics and tests.
struct LevelInfo {
  int level = 0;           ///< 1-based level number
  size_t num_runs = 0;     ///< runs currently resident
  uint64_t num_entries = 0;///< total entries across the level's runs
  uint64_t capacity = 0;   ///< entry capacity (T-1) * T^(i-1) * buffer
  Key min_key = 0;         ///< smallest key on the level (0 when empty)
  Key max_key = 0;         ///< largest key on the level (0 when empty)
  size_t current_epoch_runs = 0;  ///< runs built under the current tuning
  double filter_bits_per_entry = 0;  ///< mean Bloom bits/entry across runs
};

/// How far a live reconfiguration has propagated through the tree. Runs
/// are stamped with the tuning epoch they were built under; a Reconfigure
/// bumps the epoch, so entries in current-epoch runs carry the new Bloom
/// budget while older runs keep their filters until a compaction rewrites
/// them. Structure (run counts and level capacities under the new policy
/// and size ratio) converges separately, one migration-priority
/// maintenance unit at a time.
struct MigrationProgress {
  uint64_t epoch = 0;             ///< current tuning epoch
  uint64_t runs_total = 0;        ///< resident runs
  uint64_t runs_current = 0;      ///< runs built under the current epoch
  uint64_t entries_total = 0;     ///< entries resident in runs
  uint64_t entries_current = 0;   ///< entries in current-epoch runs
  int nonconforming_levels = 0;   ///< levels still violating target shape

  /// True when every level satisfies the current policy/size-ratio shape
  /// (old-epoch filters may still be live; they migrate lazily).
  bool structure_conforming() const { return nonconforming_levels == 0; }

  /// Fraction of resident entries already under the current epoch.
  double entries_current_fraction() const {
    return entries_total == 0
               ? 1.0
               : static_cast<double>(entries_current) /
                     static_cast<double>(entries_total);
  }

  /// Folds another shard's progress into this one (epoch = max).
  void Accumulate(const MigrationProgress& other);
};

/// An immutable point-in-time view of the tree's read sources, published
/// by the writer via one atomic shared_ptr swap and acquired by readers
/// with one atomic load — the lock-free read path's whole handshake.
/// Everything a Get/Scan touches is snapshotted here: the memtables are
/// multi-versioned and insert-only (so a reader bounded at the sequence
/// number it observed keeps a frozen view even while the writer keeps
/// inserting), and runs are immutable by construction. Reclamation is the
/// shared_ptr refcount: the last reader of a superseded snapshot drops
/// the old memtables/runs, no epochs or hazard pointers needed.
///
/// Consistency invariant: every sequence number stored in `sealed` or in
/// `levels` at publication time is <= the tree's visible sequence at
/// publication. A reader that loads the snapshot FIRST and the visible
/// sequence SECOND (both acquire) therefore holds a bound V covering all
/// run/sealed entries, and filtering the memtables at V yields exactly
/// the writes applied up to V — a prefix of the write sequence.
struct ReadSnapshot {
  std::shared_ptr<const MemTable> active;  ///< the (still filling) buffer
  std::shared_ptr<const MemTable> sealed;  ///< full buffer, or null
  /// levels[i] holds level i+1; runs newest first. Deep-copied vectors,
  /// shared runs.
  std::vector<std::vector<std::shared_ptr<Run>>> levels;
  uint64_t epoch = 0;             ///< tuning epoch at publication
  bool fence_pointer_skip = true; ///< Options::fence_pointer_skip frozen
};

#if defined(__SANITIZE_THREAD__)
#define ENDURE_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ENDURE_TSAN_BUILD 1
#endif
#endif

/// Holder for the published ReadSnapshot pointer. Production builds use
/// std::atomic<std::shared_ptr> — one lock-free atomic load per read.
/// The ThreadSanitizer build substitutes a mutex: libstdc++'s _Sp_atomic
/// guards its plain pointer with an embedded lock *bit* whose reader
/// side unlocks with relaxed ordering (shared_ptr_atomic.h, load()), a
/// real-time exclusion TSan's happens-before analysis cannot see, so
/// every reader would be reported racing the publisher. The mutex keeps
/// the surrounding protocol (and everything the snapshot guards) fully
/// race-checked while silencing that one false positive.
class AtomicSnapshotPtr {
 public:
  std::shared_ptr<const ReadSnapshot> load(std::memory_order order) const {
#ifdef ENDURE_TSAN_BUILD
    (void)order;
    std::lock_guard<std::mutex> lock(mu_);
    return ptr_;
#else
    return ptr_.load(order);
#endif
  }

  void store(std::shared_ptr<const ReadSnapshot> snap,
             std::memory_order order) {
#ifdef ENDURE_TSAN_BUILD
    (void)order;
    std::lock_guard<std::mutex> lock(mu_);
    ptr_ = std::move(snap);
#else
    ptr_.store(std::move(snap), order);
#endif
  }

 private:
#ifdef ENDURE_TSAN_BUILD
  mutable std::mutex mu_;
  std::shared_ptr<const ReadSnapshot> ptr_;
#else
  std::atomic<std::shared_ptr<const ReadSnapshot>> ptr_;
#endif
};

/// A durable tree's manifest, captured under the owner's lock and written
/// without it (LsmTree::PublishMaintenance). Captures are numbered, and a
/// capture older than the manifest already on disk writes nothing, so a
/// slow publisher can never roll the manifest back.
struct ManifestPublication {
  uint64_t seq = 0;          ///< capture order within the tree
  ManifestData manifest;     ///< the durable state at capture
  uint64_t delete_mark = 0;  ///< FilePageStore::DeleteMark() at capture
};

/// One unit of maintenance — the only way the tree flushes, compacts or
/// migrates, whichever thread runs it — produced by PrepareMaintenance()
/// under the owner's lock, executed (all I/O) by ExecuteMaintenance()
/// with NO lock held, made visible by InstallMaintenance() back under
/// the lock, and made durable by PublishMaintenance() with the lock
/// released again. The unit snapshots everything the off-lock phase needs —
/// input runs (shared_ptr keeps their segments alive), the sealed buffer,
/// the Bloom budget and tombstone rule frozen at prepare time — so
/// Execute never touches the tree. Install validates that the tree still
/// matches the snapshot (same tuning epoch, inputs still resident, the
/// buffer still sealed) and discards the output as a clean no-op when a
/// foreground operation raced ahead.
struct MaintenanceUnit {
  /// kPublish does no I/O but the manifest write: it persists a resolved
  /// migration's cleared flag, or retries a publication that failed.
  enum class Kind { kNone, kFlush, kCompaction, kPublish };

  Kind kind = Kind::kNone;
  /// Scheduler class: 0 = flush, 1 = migration step, 2 = major compaction.
  int priority = 2;
  int level = 0;       ///< compaction source level (1-based)
  uint64_t epoch = 0;  ///< tuning epoch at prepare (install revalidates)

  std::shared_ptr<MemTable> buffer;  ///< flush: the sealed buffer
  std::vector<std::shared_ptr<Run>> inputs;  ///< compaction: level snapshot
  /// Single over-capacity run: push it down without rewriting (it keeps
  /// its build epoch) — the migration-step fast path.
  bool single_run_push = false;
  double bits_per_entry = 0;  ///< Monkey budget frozen at prepare
  bool drop_tombstones = false;

  std::shared_ptr<Run> output;  ///< produced by Execute, placed by Install
  /// Captured by Install on a durable tree, written by Publish.
  std::optional<ManifestPublication> publication;
};

/// The storage engine core. Writes and structural maintenance are
/// serialized externally (the experiment harness runs one thread, as in
/// the paper; ShardedDB guards each shard's tree with the shard mutex),
/// but Get() and Scan() are lock-free: they acquire the current
/// ReadSnapshot with a single atomic load and never touch the shard
/// mutex, so any number of reader threads proceed concurrently with the
/// writer and with maintenance installs. All flushes and compactions
/// follow one prepare/execute/install/publish protocol (MaintenanceUnit).
/// A scheduler runs the units with only the snapshot, the run-list swap
/// and a manifest capture under the owner's lock; Flush() and
/// DrainMaintenance() run the same units back to back on the calling
/// thread. `Options::background_maintenance` decides only who runs them:
/// with it, filling the write buffer seals it into an immutable slot that
/// stays readable (Get/Scan consult it between the active buffer and the
/// runs) until a flush unit pushes it into level 1; without it, the
/// writer that fills the buffer flushes it. See docs/architecture.md
/// ("Concurrency model").
class LsmTree {
 public:
  /// `store` and `stats` must outlive the tree.
  LsmTree(const Options& options, PageStore* store, Statistics* stats);
  ENDURE_DISALLOW_COPY_AND_ASSIGN(LsmTree);

  /// Inserts or updates a key. Non-OK means the write was NOT
  /// acknowledged (it may or may not have reached the memtable — exactly
  /// the guarantee a crash gives); an I/O failure on the inline
  /// flush/WAL path also latches the tree read-only (see Health()).
  Status Put(Key key, Value value);

  /// Inserts or updates several keys with one WAL group commit: all
  /// records are staged and hit the log in a single write (and, under
  /// WalSyncMode::kPerBatch, a single fsync) — the amortization
  /// bench/micro_wal measures. Without durability it is plain Puts.
  /// Non-OK means the batch was not acknowledged (a prefix may have been
  /// applied).
  Status PutBatch(const std::vector<std::pair<Key, Value>>& pairs);

  /// Deletes a key (tombstone write). Error contract as Put.
  Status Delete(Key key);

  /// Point lookup: memtable, then levels shallow-to-deep, runs
  /// newest-to-oldest; first match wins. Lock-free: acquires the current
  /// ReadSnapshot (one atomic load, counted in snapshot_acquires) and
  /// bounds memtable reads at the visible sequence it observed — safe to
  /// call from any thread concurrently with writes and maintenance.
  std::optional<Value> Get(Key key);

  /// A forward cursor over the live entries in [lo, hi), in key order:
  /// the scan, advanced one entry at a time, so its reader holds one
  /// entry rather than the range. Opening it counts one range query,
  /// acquires the snapshot (one atomic load, then the visible bound, as
  /// in Get()) and opens a page iterator on every run the range
  /// overlaps (one range seek and its first page read each; with fence
  /// skipping off, every other run is charged a blind seek). The active
  /// buffer, the sealed buffer and the runs then merge newest source
  /// first, trimmed to the range, with tombstones dropped. The view is
  /// the snapshot's however long the cursor lives: an exact prefix of
  /// the applied write sequence. A page that cannot be read (I/O error,
  /// checksum mismatch) ends the cursor with that status and latches the
  /// tree (see Health()) — entries already visited are then not an
  /// answer, since the rest would read as deleted keys. Movable; its
  /// entry() stays valid until the next Next().
  class RangeCursor {
   public:
    /// One past every key a scan can yield (hi is exclusive, so a scan
    /// never reaches the largest key): the head of an ended source.
    static constexpr Key kEnd = ~Key{0};

    RangeCursor(LsmTree* tree, Key lo, Key hi);

    /// True while positioned on an entry; false at the end of the range
    /// or after a read error (see status()).
    bool Valid() const { return key_ != kEnd; }
    /// The current entry's key, or kEnd once the cursor ended.
    Key key() const { return key_; }
    const Entry& entry() const { return *current_; }
    void Next();
    /// OK unless a page read failed, which also ended the cursor.
    const Status& status() const { return status_; }

   private:
    /// A run's page iterator and its head key (kEnd once it ended or
    /// passed hi).
    struct RunSource {
      Run::Iterator it;
      Key key;
    };

    /// Steps every source whose head is `past` beyond it (pass kEnd to
    /// step none), then settles on the newest source holding the smallest
    /// head; repeats past tombstones. Ends the cursor on a read error.
    void Settle(Key past);
    /// Refreshes `run`'s head; false (cursor ended, tree latched) when
    /// its iterator died on a read error.
    bool RunHead(RunSource* run);
    Key MemHead(const SkipList::Iterator& it) const {
      return it.Valid() && it.entry().key < hi_ ? it.entry().key : kEnd;
    }

    LsmTree* tree_;
    std::shared_ptr<const ReadSnapshot> snap_;  ///< keeps the sources alive
    Key hi_;
    /// The active (rank 0) and sealed (rank 1) buffers, then the runs in
    /// level order, newest first.
    SkipList::Iterator mem_[2];
    Key mem_key_[2] = {kEnd, kEnd};
    std::vector<RunSource> runs_;
    const Entry* current_ = nullptr;
    Key key_ = kEnd;
    Status status_;
  };

  /// Range query over [lo, hi): the RangeCursor's entries collected into
  /// a vector, or its read error.
  StatusOr<std::vector<Entry>> Scan(Key lo, Key hi);

  /// Flushes the sealed buffer (if any) and then the active memtable, in
  /// age order: drains the pending units (an older sealed buffer and the
  /// merges it starts), seals the active buffer, and drains again. Also
  /// triggered automatically when the buffer fills and background
  /// maintenance is off. On failure nothing is lost — a buffer that did
  /// not land stays sealed and readable, a merge that did not run leaves
  /// its inputs resident — and the call may simply be retried; the tree
  /// is NOT latched, so maintenance owners decide the retry policy.
  Status Flush();

  /// Runs maintenance units on the calling thread until none is pending
  /// (PrepareMaintenance, ExecuteMaintenance with no rate limiter,
  /// InstallMaintenance), then publishes the newest manifest capture —
  /// also when a later unit failed, since a capture covers every install
  /// before it. The owner calls it where no scheduler runs the units (a
  /// foreground deployment's open and retune); Flush() is built on it.
  /// Returns the first failing unit's status (its work stays pending).
  Status DrainMaintenance();

  /// True when a sealed (full, immutable, not yet flushed) buffer is
  /// pending maintenance.
  bool HasSealedMemtable() const { return sealed_ != nullptr; }

  // --- maintenance protocol (prepare/execute/install/publish)
  // The owner (ShardedDB's compaction scheduler, or DrainMaintenance on
  // the calling thread) drives one unit at a time per tree:
  //   lock     -> unit = tree->PrepareMaintenance();       // snapshot
  //   unlock   -> s = tree->ExecuteMaintenance(&unit, limiter); // all I/O
  //   lock     -> if (s.ok()) s = tree->InstallMaintenance(&unit); // swap
  //   unlock   -> if (s.ok()) s = tree->PublishMaintenance(&unit); // fsync
  // Execute touches only the unit's snapshot, the page store (internally
  // synchronized) and statistics — never opts_ or the level lists — so
  // foreground reads and writes proceed under the lock meanwhile; Publish
  // touches only the captured manifest, the directory and the tree's
  // publication state (its own mutex). Install
  // discards the output (returning OK) when the tree moved on: a
  // Reconfigure bumped the epoch, a foreground Flush consumed the sealed
  // buffer, or the input runs are no longer resident. One unit makes one
  // bounded step; HasMaintenanceWork() stays true until the merges it
  // starts have fully settled, so the owner just keeps scheduling.

  /// Snapshots the most urgent pending unit: the sealed buffer (flush),
  /// else the shallowest non-conforming level (compaction), else a
  /// publication owed to disk (kPublish). Returns a Kind::kNone unit
  /// when nothing is pending or the tree is latched; as a side effect, a
  /// pending-migration flag with nothing left to do is cleared here (and
  /// persisted by a kPublish unit).
  MaintenanceUnit PrepareMaintenance();

  /// Runs the unit's I/O (builds the flush run / merges the input runs),
  /// charging a merge to `limiter` (null = unlimited; flushes are never
  /// charged). Call WITHOUT the owner's lock. On failure the unit holds
  /// no output and nothing is resident — retry by re-preparing.
  Status ExecuteMaintenance(MaintenanceUnit* unit, RateLimiter* limiter);

  /// Publishes the unit's output into the level lists (under the owner's
  /// lock) after revalidating the snapshot; stale units are discarded and
  /// return OK. On a durable tree it also captures the manifest into
  /// `unit->publication` — no I/O happens here.
  Status InstallMaintenance(MaintenanceUnit* unit);

  /// Writes the manifest Install captured (if any), then unlinks the WAL
  /// generations and deferred segment deletes it no longer references.
  /// Call WITHOUT the owner's lock. An error is retryable and leaves the
  /// old manifest standing with everything it references: the flushed
  /// entries stay WAL-covered, and the in-memory tree is merely ahead of
  /// disk — HasMaintenanceWork() stays true until a later publication
  /// lands.
  Status PublishMaintenance(MaintenanceUnit* unit);

  /// True when a unit is pending: a sealed buffer, a non-conforming
  /// level, an unresolved migration flag, or a publication owed after a
  /// failed one (false when latched).
  bool HasMaintenanceWork() const;

  /// Priority of the next unit PrepareMaintenance would produce (0 =
  /// flush, 1 = migration step, 2 = major compaction).
  int MaintenancePriority() const;

  /// Runs resident in `level` (1-based; 0 for levels beyond the tree) —
  /// the write-path backpressure signal.
  size_t RunsInLevel(int level) const;

  /// First unrecovered background/write-path failure, or OK. Once
  /// non-OK the tree is in read-only degraded mode: writes and
  /// maintenance are rejected with this status, reads keep serving.
  /// Latched by foreground write-path failures, by read-path
  /// I/O/corruption errors, and by owners giving up on background
  /// retries (LatchBackgroundError); cleared only by reopening.
  /// Thread-safe (lock-free readers latch too): the healthy fast path is
  /// one relaxed-ish atomic load, the latched path takes a small mutex.
  Status Health() const;

  /// Latches `error` (first error wins; OK is ignored) and counts the
  /// read-only transition. ShardedDB calls this when a background job
  /// exhausts its retry budget; the tree's own write path calls it on
  /// foreground I/O failures, and lock-free readers call it on read-path
  /// I/O/corruption errors. Thread-safe.
  void LatchBackgroundError(const Status& error);

  /// Memory-arbiter hook: retargets the active buffer's seal threshold
  /// (in entries, clamped to >= 1) without a tuning-epoch bump or a
  /// manifest write. The override sticks across seals/flushes until the
  /// next Reconfigure, which resets the threshold to its own
  /// buffer_entries. Call under the owner's lock (it is a write-side
  /// mutation).
  void SetBufferCapacity(uint64_t entries);

  /// Transitions the live tree to `new_options` without rebuilding it:
  /// - Bloom bits-per-entry and filter allocation take effect on runs
  ///   built from now on (flushes, compactions); resident runs keep their
  ///   filters until a compaction rewrites them (tracked by tuning epoch).
  /// - A buffer_entries change retargets the active memtable's seal
  ///   threshold immediately; an over-full buffer is sealed (background
  ///   mode) or flushed inline, exactly like a filling write (that Flush
  ///   drains every pending unit, the migration's included).
  /// - size_ratio / policy changes are realized incrementally: every
  ///   non-conforming level becomes a migration-priority maintenance unit
  ///   (one level per unit), so the scheduler, or DrainMaintenance(),
  ///   migrates the tree without a stop-the-world rebuild.
  /// Page geometry and storage placement (entries_per_page, backend,
  /// storage_dir, background_maintenance) are immutable; changing them
  /// returns InvalidArgument and leaves the tree untouched.
  Status Reconfigure(const Options& new_options);

  /// True while the latest Reconfigure may have left some level
  /// violating the current policy/size-ratio shape. A cached flag (O(1),
  /// checked on every write's maintenance hook): set by Reconfigure,
  /// cleared by the first PrepareMaintenance that finds every level
  /// conforming.
  bool MigrationPending() const;

  /// Epoch/shape progress of the latest reconfiguration.
  MigrationProgress Progress() const;

  /// Tuning epoch of runs built now (bumped by each Reconfigure).
  uint64_t tuning_epoch() const { return tuning_epoch_; }

  /// Builds a settled tree from `sorted_entries` (strictly ascending keys),
  /// filling levels bottom-up to capacity and stride-partitioning keys so
  /// every run spans the key domain (steady-state shape). Must be called on
  /// an empty tree. On failure the tree stays empty (every partial run is
  /// abandoned) and the load may be retried.
  Status BulkLoad(const std::vector<Entry>& sorted_entries);

  /// Deepest level with any run (0 when the tree is empty).
  int DeepestLevel() const;

  /// Per-level summaries.
  std::vector<LevelInfo> GetLevelInfos() const;

  /// Entries across memtable and all runs (shadowed duplicates included).
  uint64_t TotalEntries() const;

  /// Entry capacity of `level` (1-based): (T-1) * T^(level-1) * buffer.
  uint64_t LevelCapacity(int level) const;

  const Options& options() const { return opts_; }
  const MemTable& memtable() const { return *active_; }
  Statistics* stats() const { return stats_; }

  // --- durability (docs/durability.md) ---
  // A durable tree (Options::durability, file backend) logs every write
  // to a WAL before acknowledging it and publishes a manifest after every
  // structural change. The WAL is a sequence of numbered generations
  // (wal_<gen>.log): sealing or flushing a buffer rotates appends to a
  // fresh one, and a manifest records the oldest generation any resident
  // buffer still needs, so a flush retires logs by unlinking whole files.
  // The open-recover sequence is:
  //   LsmTree tree(recovered_options, store, stats);   // empty tree
  //   tree.RecoverFrom(manifest);   // adopt segments, rebuild runs
  //   tree.ReplayWal(dir);          // restore the memtables
  //   tree.AttachDurability(dir);   // open a fresh generation, publish
  // ShardedDB::Open drives this per shard; tests may too.

  /// Restores levels, tuning epoch, migration flag and cursors from a
  /// manifest. Requires an empty tree on a persistent FilePageStore;
  /// adopts every referenced segment (error if one is missing/short) and
  /// reaps unreferenced segment files afterwards.
  Status RecoverFrom(const ManifestData& m);

  /// Replays every intact record of `dir`'s live WAL generations (the
  /// recovered manifest's oldest live one and every later file, in
  /// order) into the memtable through the normal write path
  /// (flushing/sealing when it fills), without re-logging. Returns the
  /// number of entries replayed and advances the sequence counter past
  /// the highest replayed seq.
  StatusOr<uint64_t> ReplayWal(const std::string& dir);

  /// Starts durable operation rooted at `dir`: opens a fresh WAL
  /// generation for appending, publishes the manifest and unlinks WAL
  /// files older than the live generations, leaving `dir` consistent.
  /// Under WalSyncMode::kBackground `flush_service` (owned by the
  /// ShardedDB, outliving the tree) drives this tree's periodic WAL syncs
  /// — one thread per deployment rather than per shard; without one the
  /// WAL appender cannot open in that mode (InvalidArgument).
  Status AttachDurability(const std::string& dir,
                          WalFlushService* flush_service = nullptr);

  /// Snapshot of the durable state (run layout, tuning, cursors).
  ManifestData ToManifest() const;

  /// Drops the WAL writer exactly as a crash would: staged-but-unsynced
  /// records are lost, no further publication happens. Kill-point test
  /// hook; call with no maintenance unit in flight.
  void CrashForTesting();

 private:
  Status Write(const Entry& e);
  /// Post-insert maintenance: seals (background mode) or flushes a full
  /// buffer — shared by the write path, WAL replay and Reconfigure.
  Status MaintainAfterWrite();
  /// Appends one entry record to the WAL (no commit — callers group).
  void StageWalRecord(const Entry& e);
  /// Commits staged WAL records (one write; fsync under kPerBatch).
  Status CommitWal();
  /// Replays one WAL entry through the write path, without logging.
  Status ReplayEntry(const Entry& e);
  /// Switches WAL appends to the next generation (no-op before
  /// AttachDurability). On failure nothing changed.
  Status RotateWal();
  /// Oldest WAL generation the resident buffers need (an empty active
  /// buffer needs none but the current one).
  uint64_t OldestLiveWalGen() const;
  /// Captures the manifest for a later Publish (owner's lock held).
  ManifestPublication CapturePublication();
  /// Makes `p` durable unless a newer capture already is, then unlinks
  /// what it retired. Needs no owner lock (serialized on publish_mu_).
  Status Publish(const ManifestPublication& p);
  /// Capture + Publish in one step — Reconfigure, bulk load and attach —
  /// when durable.
  Status PublishManifestIfDurable();
  /// Unlinks WAL files older than the live generations (attach time).
  Status RemoveStaleWals();
  /// Moves the full active buffer into the sealed slot (which must be
  /// empty) and installs a fresh active buffer logging to a fresh WAL
  /// generation. On a failed rotation nothing changed.
  Status SealMemtable();
  /// Install's compaction half: swaps the unit's output in for its
  /// inputs. False (nothing changed) when the inputs are no longer the
  /// level's oldest runs.
  bool InstallCompaction(MaintenanceUnit* unit);
  /// Rebuilds and atomically publishes the ReadSnapshot from the current
  /// members. Called (under the owner's lock) after every structural
  /// change a reader may observe: construction, seal, maintenance
  /// install, reconfigure, bulk load, recovery.
  void PublishSnapshot();
  /// Advances the visible sequence to at least `seq` (release store).
  /// Called right after an entry is applied to the active memtable —
  /// visibility follows apply, not WAL commit, so at most one
  /// applied-but-unacknowledged write per tree is readable early.
  void BumpVisible(SeqNum seq);
  /// The active buffer's current seal threshold: the arbiter override
  /// when one is set, Options::buffer_entries otherwise.
  uint64_t EffectiveBufferCapacity() const {
    return buffer_capacity_override_ != 0 ? buffer_capacity_override_
                                          : opts_.buffer_entries;
  }
  /// Bloom budget for a run landing on `level`, given the current tree
  /// depth (re-derived from the Monkey allocation each time).
  double FilterBitsForLevel(int level, int projected_depth) const;
  /// True when no level deeper than `level` holds a run.
  bool NothingBelow(int level) const;
  /// True when `level` (1-based) satisfies the current policy/size-ratio
  /// shape: leveling-like levels hold one run within capacity, tiering
  /// levels fewer than T runs.
  bool LevelConforms(int level) const;
  /// True when some level violates LevelConforms.
  bool AnyNonConforming() const;
  /// Stamps a freshly built run with the current tuning epoch.
  void Stamp(const std::shared_ptr<Run>& run) {
    run->set_tuning_epoch(tuning_epoch_);
  }
  /// Ensures levels_ has slots up to `level` (1-based).
  void EnsureLevel(int level);
  /// Projected total depth if the tree must hold `entries` entries.
  int ProjectedDepth(uint64_t entries) const;

  Options opts_;
  PageStore* store_;
  Statistics* stats_;
  /// Durable mode only: `store_` downcast, for segment adoption and
  /// deferred-delete purging (null when durability is off).
  FilePageStore* file_store_ = nullptr;
  /// Empty until AttachDurability. Written with the owner's lock AND
  /// publish_mu_ held, so either one suffices to read it.
  std::string durable_dir_;
  std::unique_ptr<WalWriter> wal_;  ///< null until AttachDurability
  /// WAL generation appends go to (during replay: the file replaying).
  uint64_t wal_gen_ = 0;
  /// Oldest generation holding records of the active / sealed buffer.
  uint64_t active_wal_gen_ = 0;
  uint64_t sealed_wal_gen_ = 0;
  uint64_t capture_seq_ = 0;  ///< last ManifestPublication::seq handed out
  /// A publication failed and no capture has been taken since: the
  /// manifest on disk lags the tree, and maintenance owes a kPublish
  /// unit. Set by publishers on any thread, cleared by captures.
  std::atomic<bool> publish_owed_{false};
  /// Serializes manifest writes and the unlinks they allow.
  std::mutex publish_mu_;
  uint64_t published_seq_ = 0;      ///< seq of the manifest on disk
  uint64_t unretired_wal_gen_ = 0;  ///< lowest generation not unlinked
  /// The mutable write buffer. Shared: superseded read snapshots keep
  /// the old buffer alive after a flush swaps a fresh one in.
  std::shared_ptr<MemTable> active_;
  /// Full buffer awaiting flush (or null). Shared so an off-lock flush
  /// unit can keep reading it while a racing foreground Flush detaches
  /// it — install then notices sealed_ changed and discards the output.
  std::shared_ptr<MemTable> sealed_;
  /// The published read view (see ReadSnapshot). Writers store with
  /// release under their serialization; readers load with acquire.
  AtomicSnapshotPtr snapshot_;
  /// Highest sequence applied to the memtable (monotone; single writer).
  std::atomic<SeqNum> visible_seq_{0};
  /// Arbiter override of the seal threshold (0 = none); see
  /// SetBufferCapacity().
  uint64_t buffer_capacity_override_ = 0;
  SeqNum next_seq_ = 1;
  uint64_t tuning_epoch_ = 0;  ///< bumped by Reconfigure; stamps new runs
  /// Maybe-work flag for MigrationPending() (see its contract).
  bool migration_pending_ = false;
  /// Read-only degraded-mode latch (see Health()). The flag is the
  /// lock-free "healthy" fast path; the Status itself is guarded by
  /// latch_mu_ so concurrent readers can latch without a data race.
  std::atomic<bool> error_latched_{false};
  mutable std::mutex latch_mu_;
  Status background_error_;  ///< guarded by latch_mu_
  /// levels_[i] holds level i+1; runs ordered newest first.
  std::vector<std::vector<std::shared_ptr<Run>>> levels_;
};

// Per-tree open-recover plumbing: ShardedDB::Open drives this sequence
// once per shard directory.

/// If `dir` holds a manifest, reads it into `m`, folds its persisted
/// tuning into `opts` (validating the merged options — a CRC-valid
/// manifest can still carry knobs this build rejects, which must
/// surface as a Status, never an abort downstream), checks the page
/// geometry, and returns true. Returns false on a fresh directory.
StatusOr<bool> LoadDurableState(const std::string& dir, Options* opts,
                                ManifestData* m);

/// The per-tree recovery tail: when `existing`, recovers from `m`,
/// replays `dir`'s WAL and counts the recovery; always attaches
/// durability (opens a fresh WAL generation — registered with
/// `flush_service` when given — and publishes once). Thread-safe across
/// trees: the parallel ShardedDB::Open runs one call per shard
/// concurrently.
Status RecoverAndAttach(LsmTree* tree, const ManifestData& m,
                        bool existing, const std::string& dir,
                        WalFlushService* flush_service = nullptr);

}  // namespace endure::lsm

#endif  // ENDURE_LSM_LSM_TREE_H_
