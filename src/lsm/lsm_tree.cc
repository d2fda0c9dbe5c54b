#include "lsm/lsm_tree.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <queue>

#include "lsm/run_builder.h"
#include "util/env.h"
#include "util/fault_injection.h"

namespace endure::lsm {

LsmTree::LsmTree(const Options& options, PageStore* store, Statistics* stats)
    : opts_(options),
      store_(store),
      stats_(stats),
      active_(std::make_shared<MemTable>(options.buffer_entries)) {
  ENDURE_CHECK_MSG(opts_.Validate().ok(), "invalid Options");
  ENDURE_CHECK(store != nullptr && stats != nullptr);
  ENDURE_CHECK(store->entries_per_page() == opts_.entries_per_page);
  if (opts_.durability) {
    file_store_ = dynamic_cast<FilePageStore*>(store);
    ENDURE_CHECK_MSG(file_store_ != nullptr && file_store_->persistent(),
                     "durability requires a persistent FilePageStore");
  }
  PublishSnapshot();  // readers may start before the first write
}

void LsmTree::PublishSnapshot() {
  auto snap = std::make_shared<ReadSnapshot>();
  snap->active = active_;
  snap->sealed = sealed_;
  snap->levels = levels_;
  snap->epoch = tuning_epoch_;
  snap->fence_pointer_skip = opts_.fence_pointer_skip;
  snapshot_.store(std::move(snap), std::memory_order_release);
}

void LsmTree::BumpVisible(SeqNum seq) {
  // Single writer: a plain read-modify-write is race-free, and readers
  // only need the release pairing with their acquire load.
  if (seq > visible_seq_.load(std::memory_order_relaxed)) {
    visible_seq_.store(seq, std::memory_order_release);
  }
}

void LsmTree::SetBufferCapacity(uint64_t entries) {
  buffer_capacity_override_ = std::max<uint64_t>(1, entries);
  active_->set_capacity(buffer_capacity_override_);
}

uint64_t LsmTree::LevelCapacity(int level) const {
  ENDURE_CHECK(level >= 1);
  const double cap = static_cast<double>(opts_.buffer_entries) *
                     (opts_.size_ratio - 1) *
                     std::pow(opts_.size_ratio, level - 1);
  return static_cast<uint64_t>(cap);
}

int LsmTree::ProjectedDepth(uint64_t entries) const {
  // Smallest L with sum of level capacities >= entries.
  int level = 1;
  uint64_t cumulative = 0;
  while (true) {
    cumulative += LevelCapacity(level);
    if (cumulative >= entries || level >= 64) return level;
    ++level;
  }
}

double LsmTree::FilterBitsForLevel(int level, int projected_depth) const {
  const int depth = std::max(level, projected_depth);
  MonkeyAllocator alloc(opts_.filter_bits_per_entry, opts_.size_ratio, depth,
                        opts_.filter_allocation);
  return alloc.BitsPerEntry(level);
}

bool LsmTree::NothingBelow(int level) const {
  for (size_t i = static_cast<size_t>(level); i < levels_.size(); ++i) {
    if (!levels_[i].empty()) return false;
  }
  return true;
}

void LsmTree::EnsureLevel(int level) {
  if (static_cast<int>(levels_.size()) < level) levels_.resize(level);
}

Status LsmTree::MaintainAfterWrite() {
  if (!active_->IsFull()) return Status::OK();
  if (opts_.background_maintenance) {
    // Hand the full buffer to maintenance instead of flushing inline. If
    // maintenance has fallen behind (the previous sealed buffer is still
    // pending), the active buffer absorbs writes over capacity while the
    // owner stalls writers upstream until the scheduler drains the debt.
    if (sealed_ == nullptr) return SealMemtable();
    return Status::OK();
  }
  return Flush();
}

void LsmTree::LatchBackgroundError(const Status& error) {
  if (error.ok()) return;
  std::lock_guard<std::mutex> lock(latch_mu_);
  if (!background_error_.ok()) return;  // first error wins
  background_error_ = error;
  error_latched_.store(true, std::memory_order_release);
  ++stats_->read_only_transitions;
}

Status LsmTree::Health() const {
  if (!error_latched_.load(std::memory_order_acquire)) return Status::OK();
  std::lock_guard<std::mutex> lock(latch_mu_);
  return background_error_;
}

Status LsmTree::Write(const Entry& e) {
  ENDURE_RETURN_IF_ERROR(Health());
  ++stats_->writes;
  active_->Upsert(e);
  BumpVisible(e.seq);
  Status s = MaintainAfterWrite();
  // Log after applying: if the write just triggered a seal or flush, the
  // record lands in the fresh generation while the entry sits in the
  // sealed buffer or a run — a benign duplicate at replay (same seq, same
  // value). The invariant an acknowledged write relies on is that by the
  // time this returns it is in memtable ∪ runs and in WAL ∪ manifest.
  if (s.ok() && wal_ != nullptr) {
    StageWalRecord(e);
    s = CommitWal();
  }
  // A foreground write-path I/O failure (inline flush, manifest publish,
  // WAL rotation or commit) latches: the entry may be applied but is not
  // logged, so the tree must stop acknowledging writes it cannot make
  // durable.
  LatchBackgroundError(s);
  return s;
}

Status LsmTree::Put(Key key, Value value) {
  return Write(Entry{key, next_seq_++, value, EntryType::kValue});
}

Status LsmTree::PutBatch(const std::vector<std::pair<Key, Value>>& pairs) {
  ENDURE_RETURN_IF_ERROR(Health());
  for (const auto& [key, value] : pairs) {
    const Entry e{key, next_seq_++, value, EntryType::kValue};
    ++stats_->writes;
    active_->Upsert(e);
    BumpVisible(e.seq);
    const Status s = MaintainAfterWrite();
    if (!s.ok()) {
      LatchBackgroundError(s);
      return s;  // a prefix of the batch is applied but unacknowledged
    }
    // Records staged before a mid-batch seal or flush carry over to the
    // fresh generation and commit with the rest in one group below.
    if (wal_ != nullptr) StageWalRecord(e);
  }
  const Status s = CommitWal();
  LatchBackgroundError(s);
  return s;
}

Status LsmTree::Delete(Key key) {
  return Write(Entry{key, next_seq_++, 0, EntryType::kTombstone});
}

Status LsmTree::SealMemtable() {
  ENDURE_CHECK(sealed_ == nullptr);
  // The new buffer logs to a fresh generation, so the flush that retires
  // the sealed buffer retires its generations whole.
  ENDURE_RETURN_IF_ERROR(RotateWal());
  sealed_ = std::move(active_);
  sealed_wal_gen_ = active_wal_gen_;
  active_ = std::make_shared<MemTable>(EffectiveBufferCapacity());
  active_wal_gen_ = wal_gen_;
  PublishSnapshot();
  return Status::OK();
}

Status LsmTree::Flush() {
  ENDURE_RETURN_IF_ERROR(Health());
  // Age order: an older sealed buffer lands, with the merges it starts,
  // before the active one is sealed behind it.
  if (sealed_ != nullptr) ENDURE_RETURN_IF_ERROR(DrainMaintenance());
  if (!active_->empty()) ENDURE_RETURN_IF_ERROR(SealMemtable());
  return DrainMaintenance();
}

Status LsmTree::DrainMaintenance() {
  // Each capture carries every install before it, so only the newest is
  // written — also when a later unit fails, so what did install is not
  // left ahead of the manifest.
  MaintenanceUnit last;
  Status s;
  for (;;) {
    MaintenanceUnit unit = PrepareMaintenance();
    if (unit.kind == MaintenanceUnit::Kind::kNone) {
      // A latched tree prepares nothing too: report it, so no caller
      // mistakes the stop for a drained tree.
      s = Health();
      break;
    }
    s = ExecuteMaintenance(&unit, /*limiter=*/nullptr);
    if (s.ok()) s = InstallMaintenance(&unit);
    if (!s.ok()) break;
    if (unit.publication.has_value()) last = std::move(unit);
  }
  const Status published = PublishMaintenance(&last);
  return s.ok() ? published : s;
}

std::optional<Value> LsmTree::Get(Key key) {
  ++stats_->gets;
  // Snapshot FIRST, visible bound SECOND (both acquire): the bound then
  // covers every sequence resident in the snapshot's sealed buffer and
  // runs (they were visible before publication), and filtering the
  // memtables at the bound yields exactly the applied prefix — see the
  // ReadSnapshot invariant. No lock, no retry loop.
  const std::shared_ptr<const ReadSnapshot> snap =
      snapshot_.load(std::memory_order_acquire);
  const SeqNum bound = visible_seq_.load(std::memory_order_acquire);
  ++stats_->snapshot_acquires;
  if (!snap->active->empty()) {
    if (const Entry* e = snap->active->Find(key, bound); e != nullptr) {
      if (e->is_tombstone()) return std::nullopt;
      return e->value;
    }
  }
  // The sealed buffer is older than the active one but newer than any run.
  if (snap->sealed != nullptr) {
    if (const Entry* e = snap->sealed->Find(key, bound); e != nullptr) {
      if (e->is_tombstone()) return std::nullopt;
      return e->value;
    }
  }
  for (const auto& runs : snap->levels) {
    for (const auto& run : runs) {  // newest first
      Status io_status;
      const Entry* e = run->Get(key, snap->fence_pointer_skip, &io_status);
      if (!io_status.ok()) {
        // An unreadable or corrupt page: latch (fail-safe degraded mode)
        // and miss rather than continue to older runs — a deeper hit
        // could be a stale value the damaged page shadows.
        LatchBackgroundError(io_status);
        return std::nullopt;
      }
      if (e != nullptr) {
        if (e->is_tombstone()) return std::nullopt;
        return e->value;
      }
    }
  }
  return std::nullopt;
}

LsmTree::RangeCursor::RangeCursor(LsmTree* tree, Key lo, Key hi)
    : tree_(tree), hi_(hi) {
  Statistics* stats = tree->stats_;
  ++stats->range_queries;
  // Same lock-free protocol as Get(): snapshot, then visible bound.
  snap_ = tree->snapshot_.load(std::memory_order_acquire);
  const SeqNum bound = tree->visible_seq_.load(std::memory_order_acquire);
  ++stats->snapshot_acquires;

  // No I/O for the buffers: the active one is rank 0, the sealed one
  // (older than active, newer than any run) rank 1.
  mem_[0] = snap_->active->NewIterator(bound);
  mem_[0].Seek(lo);
  mem_key_[0] = MemHead(mem_[0]);
  if (snap_->sealed != nullptr) {
    mem_[1] = snap_->sealed->NewIterator(bound);
    mem_[1].Seek(lo);
    mem_key_[1] = MemHead(mem_[1]);
  }

  size_t total_runs = 0;
  for (const auto& runs : snap_->levels) total_runs += runs.size();
  runs_.reserve(total_runs);
  for (const auto& runs : snap_->levels) {
    for (const auto& run : runs) {
      std::optional<Run::Iterator> it = run->NewRangeIterator(lo, hi);
      if (!it.has_value()) {
        // Model-faithful mode: the analytical cost model charges one seek
        // per run regardless of overlap; emulate the blind seek by reading
        // the run's first page.
        if (!snap_->fence_pointer_skip) run->BlindSeek();
        continue;
      }
      runs_.push_back(RunSource{std::move(*it), kEnd});
      RunSource& source = runs_.back();
      // Run iterators are page-aligned: skip the first page's keys below
      // lo (every later page starts above lo, so this loads none).
      while (source.it.Valid() && source.it.entry().key < lo) {
        source.it.Next();
      }
      if (!RunHead(&source)) return;
    }
  }
  Settle(kEnd);
}

bool LsmTree::RangeCursor::RunHead(RunSource* run) {
  if (run->it.Valid()) {
    const Key key = run->it.entry().key;
    run->key = key < hi_ ? key : kEnd;
    return true;
  }
  run->key = kEnd;
  if (run->it.status().ok()) return true;
  // A run iterator that hit an I/O or checksum error dies in place; the
  // rest of the range would read as deleted keys, so end the cursor
  // with the error — and latch, so the fault does not go unnoticed
  // engine-wide.
  status_ = run->it.status();
  tree_->LatchBackgroundError(status_);
  current_ = nullptr;
  key_ = kEnd;
  return false;
}

void LsmTree::RangeCursor::Next() {
  ENDURE_DCHECK(Valid());
  Settle(key_);
}

void LsmTree::RangeCursor::Settle(Key past) {
  // Every source holds each key at most once, so stepping a source past
  // `past` is one Next(). Sources are visited in rank order and a later
  // one wins only with a strictly smaller head: among equal heads the
  // newest source wins, and the older versions are stepped past with
  // it. A source's head is kEnd once its next key is >= hi: by then it
  // has read every page that starts inside the range, so the page count
  // equals a full drain's.
  for (;;) {
    Key min = kEnd;
    const Entry* winner = nullptr;
    for (int i = 0; i < 2; ++i) {
      if (mem_key_[i] == kEnd) continue;
      if (mem_key_[i] == past) {
        mem_[i].Next();
        mem_key_[i] = MemHead(mem_[i]);
      }
      if (mem_key_[i] < min) {
        min = mem_key_[i];
        winner = &mem_[i].entry();
      }
    }
    for (RunSource& run : runs_) {
      if (run.key == kEnd) continue;
      if (run.key == past) {
        run.it.Next();
        if (!RunHead(&run)) return;
      }
      if (run.key < min) {
        min = run.key;
        winner = &run.it.entry();
      }
    }
    if (winner == nullptr || !winner->is_tombstone()) {
      current_ = winner;
      key_ = min;
      return;
    }
    past = min;  // a tombstone hides its key: step past it
  }
}

StatusOr<std::vector<Entry>> LsmTree::Scan(Key lo, Key hi) {
  std::vector<Entry> out;
  RangeCursor cursor(this, lo, hi);
  for (; cursor.Valid(); cursor.Next()) out.push_back(cursor.entry());
  ENDURE_RETURN_IF_ERROR(cursor.status());
  return out;
}

Status LsmTree::BulkLoad(const std::vector<Entry>& sorted_entries) {
  ENDURE_CHECK_MSG(levels_.empty() && active_->empty() && sealed_ == nullptr,
                   "BulkLoad requires an empty tree");
  ENDURE_RETURN_IF_ERROR(Health());
  if (sorted_entries.empty()) return Status::OK();
  SeqNum max_seq = sorted_entries.front().seq;
  for (size_t i = 1; i < sorted_entries.size(); ++i) {
    ENDURE_CHECK_MSG(sorted_entries[i - 1].key < sorted_entries[i].key,
                     "bulk-load keys must be strictly ascending");
    max_seq = std::max(max_seq, sorted_entries[i].seq);
  }

  const uint64_t n = sorted_entries.size();
  const int depth = ProjectedDepth(n);
  EnsureLevel(depth);

  // Fill bottom-up (a settled tree keeps its mass deep).
  std::vector<uint64_t> quota(depth + 1, 0);  // 1-based
  uint64_t remaining = n;
  for (int level = depth; level >= 1 && remaining > 0; --level) {
    quota[level] = std::min<uint64_t>(LevelCapacity(level), remaining);
    remaining -= quota[level];
  }
  ENDURE_CHECK(remaining == 0);

  // Stride scheduling: level ℓ's j-th entry has ideal position
  // (2j+1)/(2·quota[ℓ]) of the input, so each level's run samples the key
  // domain evenly. A small heap orders the next pick of every level by
  // ideal position — O(n log depth) overall instead of the O(n·depth)
  // per-entry credit scan, and each entry streams directly into its
  // level's RunBuilder (no per-level staging vectors).
  struct Cursor {
    uint64_t taken;
    uint64_t quota;
    int level;
  };
  struct PicksLater {
    bool operator()(const Cursor& a, const Cursor& b) const {
      // position(c) = (2·taken + 1) / (2·quota); compare cross-multiplied.
      return static_cast<unsigned __int128>(2 * a.taken + 1) * b.quota >
             static_cast<unsigned __int128>(2 * b.taken + 1) * a.quota;
    }
  };
  std::priority_queue<Cursor, std::vector<Cursor>, PicksLater> next_pick;
  std::vector<std::unique_ptr<RunBuilder>> builders(depth + 1);
  for (int level = 1; level <= depth; ++level) {
    if (quota[level] == 0) continue;
    builders[level] = std::make_unique<RunBuilder>(
        store_, FilterBitsForLevel(level, depth), IoContext::kBulkLoad);
    next_pick.push(Cursor{0, quota[level], level});
  }

  for (const Entry& e : sorted_entries) {
    ENDURE_CHECK(!next_pick.empty());
    Cursor c = next_pick.top();
    next_pick.pop();
    // On failure the builders' destructors abandon every partial
    // segment and levels_ holds nothing yet — the tree stays empty.
    ENDURE_RETURN_IF_ERROR(builders[c.level]->Add(e));
    if (++c.taken < c.quota) next_pick.push(c);
  }

  // Finish every builder before installing anything: all-or-nothing, so
  // a Seal failure cannot leave a half-loaded tree.
  std::vector<std::shared_ptr<Run>> built(depth + 1);
  for (int level = 1; level <= depth; ++level) {
    if (builders[level] == nullptr) continue;
    StatusOr<std::shared_ptr<Run>> run_or = builders[level]->Finish();
    ENDURE_RETURN_IF_ERROR(run_or.status());
    built[level] = std::move(*run_or);
  }
  for (int level = 1; level <= depth; ++level) {
    if (built[level] == nullptr) continue;
    Stamp(built[level]);
    levels_[level - 1].push_back(std::move(built[level]));
  }
  // The loaded entries carry caller-chosen sequences; make them all
  // visible to snapshot readers before publishing the runs.
  BumpVisible(max_seq);
  PublishSnapshot();
  return PublishManifestIfDurable();
}

Status LsmTree::Reconfigure(const Options& new_options) {
  ENDURE_RETURN_IF_ERROR(Health());
  ENDURE_RETURN_IF_ERROR(new_options.Validate());
  if (new_options.entries_per_page != opts_.entries_per_page) {
    return Status::InvalidArgument(
        "entries_per_page is fixed at open (page geometry is shared with "
        "the page store)");
  }
  if (new_options.backend != opts_.backend ||
      new_options.storage_dir != opts_.storage_dir) {
    return Status::InvalidArgument(
        "storage backend and directory cannot change on a live tree");
  }
  if (new_options.background_maintenance != opts_.background_maintenance) {
    return Status::InvalidArgument(
        "background_maintenance cannot change on a live tree");
  }
  if (new_options.durability != opts_.durability ||
      new_options.wal_sync_mode != opts_.wal_sync_mode ||
      new_options.wal_sync_interval_ms != opts_.wal_sync_interval_ms) {
    return Status::InvalidArgument(
        "durability and WAL sync settings cannot change on a live tree");
  }

  opts_ = new_options;
  ++tuning_epoch_;
  ++stats_->reconfigurations;
  // Conservatively assume the structure must be revisited; the first
  // PrepareMaintenance that finds every level conforming clears it.
  migration_pending_ = true;

  // Retarget the seal threshold; an over-full buffer is handled like a
  // filling write, except that Reconfigure itself never flushes in
  // background mode — it stays a cheap foreground call. If a sealed
  // buffer is already pending, the active one keeps serving over
  // threshold until the next write's backpressure reseals it (capacity
  // is a seal threshold, not a hard bound). An explicit retune also
  // supersedes any arbiter override of the threshold.
  buffer_capacity_override_ = 0;
  active_->set_capacity(opts_.buffer_entries);
  ENDURE_RETURN_IF_ERROR(MaintainAfterWrite());
  // Republish even when nothing sealed or flushed: the snapshot carries
  // the tuning epoch and the fence-skip flag readers consult.
  PublishSnapshot();
  // Persist the new tuning immediately: a retune must survive a crash
  // that lands before the first post-retune flush. On failure the new
  // tuning is applied in memory but not persisted — the caller may retry
  // (the next successful publication carries it too).
  return PublishManifestIfDurable();
}

bool LsmTree::LevelConforms(int level) const {
  const auto& runs = levels_[level - 1];
  if (runs.empty()) return true;
  const bool act_as_leveling =
      opts_.policy == CompactionPolicy::kLeveling ||
      (opts_.policy == CompactionPolicy::kLazyLeveling &&
       NothingBelow(level));
  if (act_as_leveling) {
    if (runs.size() > 1) return false;
    return runs.front()->num_entries() <= LevelCapacity(level);
  }
  // Tiering-like levels trigger a merge on the T-th run's arrival, so a
  // conforming level holds at most T-1 runs (entry mass moves down by run
  // count, not capacity).
  return static_cast<int>(runs.size()) < opts_.size_ratio;
}

bool LsmTree::MigrationPending() const { return migration_pending_; }

bool LsmTree::AnyNonConforming() const {
  for (int level = 1; level <= static_cast<int>(levels_.size()); ++level) {
    if (!LevelConforms(level)) return true;
  }
  return false;
}

bool LsmTree::HasMaintenanceWork() const {
  if (!Health().ok()) return false;
  return sealed_ != nullptr || migration_pending_ ||
         publish_owed_.load(std::memory_order_relaxed) || AnyNonConforming();
}

int LsmTree::MaintenancePriority() const {
  if (sealed_ != nullptr) return 0;
  return migration_pending_ ? 1 : 2;
}

size_t LsmTree::RunsInLevel(int level) const {
  if (level < 1 || level > static_cast<int>(levels_.size())) return 0;
  return levels_[level - 1].size();
}

MaintenanceUnit LsmTree::PrepareMaintenance() {
  MaintenanceUnit unit;
  if (!Health().ok()) return unit;
  unit.epoch = tuning_epoch_;
  if (sealed_ != nullptr) {
    unit.kind = MaintenanceUnit::Kind::kFlush;
    unit.priority = 0;
    unit.buffer = sealed_;  // stays installed and readable while we build
    unit.bits_per_entry = FilterBitsForLevel(1, std::max(DeepestLevel(), 1));
    return unit;
  }
  for (int level = 1; level <= static_cast<int>(levels_.size()); ++level) {
    if (LevelConforms(level)) continue;
    unit.kind = MaintenanceUnit::Kind::kCompaction;
    unit.priority = migration_pending_ ? 1 : 2;
    unit.level = level;
    unit.inputs = levels_[level - 1];  // snapshot, newest first
    // A single non-conforming run is an over-capacity leveling run: push
    // it down without rewriting (the migration-step fast path).
    unit.single_run_push = unit.inputs.size() == 1;
    unit.drop_tombstones = NothingBelow(level);
    const bool act_as_leveling =
        opts_.policy == CompactionPolicy::kLeveling ||
        (opts_.policy == CompactionPolicy::kLazyLeveling &&
         NothingBelow(level));
    const int depth =
        std::max(DeepestLevel(), ProjectedDepth(TotalEntries()));
    // Leveling merges stay on their level, tiering output descends — the
    // Monkey budget targets where the output will live.
    unit.bits_per_entry =
        FilterBitsForLevel(act_as_leveling ? level : level + 1, depth);
    return unit;
  }
  // Every level conforms: a pending migration is resolved. The cleared
  // flag — like a manifest a failed publication left owed — is persisted
  // by a publish-only unit, so not even this write happens under the
  // owner's lock.
  const bool resolved = migration_pending_;
  migration_pending_ = false;
  if (!durable_dir_.empty() &&
      (resolved || publish_owed_.load(std::memory_order_relaxed))) {
    unit.kind = MaintenanceUnit::Kind::kPublish;
  }
  return unit;
}

Status LsmTree::ExecuteMaintenance(MaintenanceUnit* unit,
                                   RateLimiter* limiter) {
  switch (unit->kind) {
    case MaintenanceUnit::Kind::kNone:
    case MaintenanceUnit::Kind::kPublish:
      return Status::OK();
    case MaintenanceUnit::Kind::kFlush: {
      // Flushes unblock writers, so they are exempt from the rate
      // limiter (it applies to compactions only).
      ++stats_->flushes;
      RunBuilder builder(store_, unit->bits_per_entry, IoContext::kFlush);
      for (SkipList::Iterator it = unit->buffer->NewIterator(); it.Valid();
           it.Next()) {
        ENDURE_RETURN_IF_ERROR(builder.Add(it.entry()));
      }
      StatusOr<std::shared_ptr<Run>> run_or = builder.Finish();
      ENDURE_RETURN_IF_ERROR(run_or.status());
      unit->output = std::move(*run_or);
      return Status::OK();
    }
    case MaintenanceUnit::Kind::kCompaction: {
      if (unit->single_run_push) {
        unit->output = unit->inputs.front();  // pure move-down, no I/O
        return Status::OK();
      }
      ++stats_->compactions;
      StatusOr<std::shared_ptr<Run>> merged_or =
          MergeRuns(store_, unit->inputs, unit->bits_per_entry,
                    unit->drop_tombstones, limiter);
      ENDURE_RETURN_IF_ERROR(merged_or.status());
      unit->output = std::move(*merged_or);  // null = consolidated away
      return Status::OK();
    }
  }
  return Status::OK();
}

Status LsmTree::InstallMaintenance(MaintenanceUnit* unit) {
  ENDURE_RETURN_IF_ERROR(Health());
  if (unit->kind == MaintenanceUnit::Kind::kNone) return Status::OK();
  if (unit->epoch != tuning_epoch_) {
    // A Reconfigure landed mid-execute: the unit carries stale tuning.
    // Dropping the output frees its segment; the next prepared unit
    // redoes the work under the new epoch.
    unit->output.reset();
    return Status::OK();
  }
  if (unit->kind == MaintenanceUnit::Kind::kFlush) {
    if (sealed_ != unit->buffer) {
      // A foreground Flush consumed the buffer meanwhile; its entries
      // are already resident via that path.
      unit->output.reset();
      return Status::OK();
    }
    Stamp(unit->output);
    EnsureLevel(1);
    auto& l1 = levels_[0];
    l1.insert(l1.begin(), std::move(unit->output));  // newest first
    sealed_.reset();
    // Merges continue stepwise: if level 1 stopped conforming, the next
    // prepared unit merges it.
    PublishSnapshot();
  } else if (unit->kind == MaintenanceUnit::Kind::kCompaction) {
    if (!InstallCompaction(unit)) {
      unit->output.reset();
      return Status::OK();
    }
    PublishSnapshot();
    if (unit->priority == 1) ++stats_->migration_steps;
  }
  // Drop the unit's hold on what it replaced before capturing: a segment
  // freed by then is in no later manifest, so this publication may
  // unlink it.
  unit->buffer.reset();
  unit->inputs.clear();
  if (!durable_dir_.empty()) unit->publication = CapturePublication();
  return Status::OK();
}

bool LsmTree::InstallCompaction(MaintenanceUnit* unit) {
  // The snapshot must still be resident as the OLDEST runs of the level
  // (a racing flush install may have prepended newer ones — fine, the
  // output slots in behind them). Anything else means a foreground
  // drain rewrote the level: discard.
  const int level = unit->level;
  if (level > static_cast<int>(levels_.size())) return false;
  auto& runs = levels_[level - 1];
  const size_t k = unit->inputs.size();
  if (runs.size() < k ||
      !std::equal(unit->inputs.begin(), unit->inputs.end(),
                  runs.end() - static_cast<ptrdiff_t>(k))) {
    return false;
  }
  runs.erase(runs.end() - static_cast<ptrdiff_t>(k), runs.end());

  if (unit->single_run_push) {
    // Push-down without rewrite keeps the run's build epoch (no Stamp).
    EnsureLevel(level + 1);  // may reallocate levels_ — index, don't alias
    auto& below = levels_[level];
    below.insert(below.begin(), std::move(unit->output));
  } else if (unit->output != nullptr) {
    Stamp(unit->output);
    // Placement re-derives the policy rule against the CURRENT tree
    // (NothingBelow may have changed while unlocked): a leveling-like
    // level keeps the merge if it fits; otherwise — and always under
    // tiering — the output descends.
    const bool act_as_leveling =
        opts_.policy == CompactionPolicy::kLeveling ||
        (opts_.policy == CompactionPolicy::kLazyLeveling &&
         NothingBelow(level));
    if (act_as_leveling &&
        unit->output->num_entries() <= LevelCapacity(level)) {
      // The merge of the level's oldest runs: back = oldest position.
      levels_[level - 1].push_back(std::move(unit->output));
    } else {
      EnsureLevel(level + 1);  // may reallocate levels_ — index, don't alias
      auto& below = levels_[level];
      below.insert(below.begin(), std::move(unit->output));
    }
  }
  // A null merged output means every entry consolidated away: removing
  // the suffix was the whole install.
  return true;
}

Status LsmTree::PublishMaintenance(MaintenanceUnit* unit) {
  if (!unit->publication.has_value()) return Status::OK();
  const Status s = Publish(*unit->publication);
  unit->publication.reset();
  // Off the owner's lock anyway: create the next generation now, so the
  // write that seals the next buffer does not open it. (No unit runs
  // once CrashForTesting may reset wal_.)
  if (s.ok() && wal_ != nullptr) wal_->PrepareRotation();
  return s;
}

MigrationProgress LsmTree::Progress() const {
  MigrationProgress p;
  p.epoch = tuning_epoch_;
  for (int level = 1; level <= static_cast<int>(levels_.size()); ++level) {
    if (!LevelConforms(level)) ++p.nonconforming_levels;
    for (const auto& run : levels_[level - 1]) {
      ++p.runs_total;
      p.entries_total += run->num_entries();
      if (run->tuning_epoch() == tuning_epoch_) {
        ++p.runs_current;
        p.entries_current += run->num_entries();
      }
    }
  }
  return p;
}

void MigrationProgress::Accumulate(const MigrationProgress& other) {
  epoch = std::max(epoch, other.epoch);
  runs_total += other.runs_total;
  runs_current += other.runs_current;
  entries_total += other.entries_total;
  entries_current += other.entries_current;
  nonconforming_levels += other.nonconforming_levels;
}

int LsmTree::DeepestLevel() const {
  for (int i = static_cast<int>(levels_.size()); i >= 1; --i) {
    if (!levels_[i - 1].empty()) return i;
  }
  return 0;
}

std::vector<LevelInfo> LsmTree::GetLevelInfos() const {
  std::vector<LevelInfo> out;
  for (size_t i = 0; i < levels_.size(); ++i) {
    LevelInfo info;
    info.level = static_cast<int>(i) + 1;
    info.num_runs = levels_[i].size();
    bool first = true;
    for (const auto& run : levels_[i]) {
      info.num_entries += run->num_entries();
      info.min_key = first ? run->min_key()
                           : std::min(info.min_key, run->min_key());
      info.max_key = first ? run->max_key()
                           : std::max(info.max_key, run->max_key());
      if (run->tuning_epoch() == tuning_epoch_) ++info.current_epoch_runs;
      if (run->num_entries() > 0) {
        info.filter_bits_per_entry +=
            static_cast<double>(run->bloom().bits()) /
            static_cast<double>(run->num_entries());
      }
      first = false;
    }
    if (!levels_[i].empty()) {
      info.filter_bits_per_entry /= static_cast<double>(levels_[i].size());
    }
    info.capacity = LevelCapacity(info.level);
    out.push_back(info);
  }
  return out;
}

uint64_t LsmTree::TotalEntries() const {
  uint64_t total = active_->size();
  if (sealed_ != nullptr) total += sealed_->size();
  for (const auto& runs : levels_) {
    for (const auto& run : runs) total += run->num_entries();
  }
  return total;
}

// ------------------------------------------------------------ durability --

void LsmTree::StageWalRecord(const Entry& e) {
  char buf[kEncodedEntryBytes];
  EncodeEntry(e, buf);
  wal_->Append(kWalEntryRecord, buf, kEncodedEntryBytes);
  ++stats_->wal_records;
}

Status LsmTree::CommitWal() {
  if (wal_ == nullptr) return Status::OK();
  const uint64_t before = wal_->bytes_committed();
  const Status s = wal_->Commit();
  // Count even a torn commit's bytes (Commit accounts what reached the
  // file before failing).
  stats_->wal_bytes += wal_->bytes_committed() - before;
  return s;
}

uint64_t LsmTree::OldestLiveWalGen() const {
  if (sealed_ != nullptr) return sealed_wal_gen_;
  return active_->empty() ? wal_gen_ : active_wal_gen_;
}

Status LsmTree::RotateWal() {
  if (wal_ == nullptr) return Status::OK();
  ENDURE_RETURN_IF_ERROR(wal_->Rotate());
  wal_gen_ = wal_->generation();
  ++stats_->wal_rotations;
  return Status::OK();
}

ManifestPublication LsmTree::CapturePublication() {
  // This capture carries every change a failed publication missed.
  publish_owed_.store(false, std::memory_order_relaxed);
  ManifestPublication p;
  p.seq = ++capture_seq_;
  p.manifest = ToManifest();
  p.delete_mark = file_store_->DeleteMark();
  return p;
}

Status LsmTree::Publish(const ManifestPublication& p) {
  std::lock_guard<std::mutex> lock(publish_mu_);
  if (durable_dir_.empty()) return Status::OK();  // CrashForTesting'd
  // A capture older than the manifest on disk writes nothing (it would
  // roll the manifest back); what it retires, the newer one retired too.
  if (p.seq > published_seq_) {
    const Status s =
        WriteManifest(durable_dir_ + "/" + kManifestFileName, p.manifest);
    if (!s.ok()) {
      // The old manifest stands, with everything it references: no
      // unlink below. Maintenance owes the tree a publication.
      publish_owed_.store(true, std::memory_order_relaxed);
      return s;
    }
    ++stats_->manifest_writes;
    published_seq_ = p.seq;
  }
  // The durable manifest references neither the segments freed before
  // the capture nor the generations below its oldest live one.
  file_store_->PurgePendingDeletes(p.delete_mark);
  for (; unretired_wal_gen_ < p.manifest.wal_min_gen; ++unretired_wal_gen_) {
    (void)RemoveFile(WalPath(durable_dir_, unretired_wal_gen_));
  }
  return Status::OK();
}

Status LsmTree::PublishManifestIfDurable() {
  if (durable_dir_.empty()) return Status::OK();
  return Publish(CapturePublication());
}

ManifestData LsmTree::ToManifest() const {
  ManifestData m;
  m.RecordTuningFrom(opts_);
  m.tuning_epoch = tuning_epoch_;
  m.migration_pending = migration_pending_;
  m.next_seq = next_seq_;
  m.next_file_id = file_store_ != nullptr ? file_store_->next_id() : 1;
  m.wal_min_gen = OldestLiveWalGen();
  m.levels.resize(levels_.size());
  for (size_t i = 0; i < levels_.size(); ++i) {
    for (const auto& run : levels_[i]) {
      ManifestRun meta;
      meta.segment = run->segment();
      meta.num_entries = run->num_entries();
      meta.tuning_epoch = run->tuning_epoch();
      // The *requested* (pre-block-rounding) budget: rebuilding with it
      // reproduces the exact filter geometry, hash count included.
      meta.bloom_bits_per_entry = run->bloom_bits_per_entry();
      m.levels[i].push_back(meta);
    }
  }
  return m;
}

Status LsmTree::RecoverFrom(const ManifestData& m) {
  ENDURE_CHECK_MSG(file_store_ != nullptr,
                   "recovery requires durability Options");
  ENDURE_CHECK_MSG(
      levels_.empty() && active_->empty() && sealed_ == nullptr,
      "RecoverFrom requires an empty tree");
  if (m.entries_per_page != opts_.entries_per_page) {
    return Status::InvalidArgument(
        "manifest page geometry does not match the opening Options");
  }
  tuning_epoch_ = m.tuning_epoch;
  migration_pending_ = m.migration_pending;
  // Replay starts at the oldest live generation; every buffer it fills
  // starts there too.
  wal_gen_ = m.wal_min_gen;
  active_wal_gen_ = m.wal_min_gen;
  if (m.next_seq > next_seq_) next_seq_ = m.next_seq;
  file_store_->set_next_id(m.next_file_id);
  EnsureLevel(static_cast<int>(m.levels.size()));
  for (size_t i = 0; i < m.levels.size(); ++i) {
    for (const ManifestRun& meta : m.levels[i]) {
      ENDURE_RETURN_IF_ERROR(
          file_store_->AdoptSegment(meta.segment, meta.num_entries));
      StatusOr<std::shared_ptr<Run>> run_or =
          RebuildRun(store_, meta, opts_.entries_per_page);
      ENDURE_RETURN_IF_ERROR(run_or.status());
      levels_[i].push_back(std::move(*run_or));
    }
  }
  // Recovered runs hold sequences up to next_seq_ - 1; snapshot readers
  // need a visible bound covering all of them before the runs publish.
  if (next_seq_ > 1) BumpVisible(next_seq_ - 1);
  PublishSnapshot();
  // Segment files the manifest does not reference are leftovers of a
  // crash between a segment write and the manifest publication (or of
  // deferred deletes that never got purged) — reap them.
  return file_store_->RemoveUnreferencedSegments();
}

Status LsmTree::ReplayEntry(const Entry& e) {
  // The write path minus operation counting and logging: replayed
  // entries are not new operations, and the WAL is not attached yet.
  active_->Upsert(e);
  BumpVisible(e.seq);
  return MaintainAfterWrite();
}

StatusOr<uint64_t> LsmTree::ReplayWal(const std::string& dir) {
  // The live generations: the manifest's oldest live one (wal_gen_, set
  // by RecoverFrom) and every later file, oldest first.
  auto names = ListDir(dir);
  if (!names.ok()) return names.status();
  std::vector<uint64_t> gens;
  for (const std::string& name : *names) {
    const std::optional<uint64_t> gen = ParseWalFileName(name);
    if (gen.has_value() && *gen >= wal_gen_) gens.push_back(*gen);
  }
  std::sort(gens.begin(), gens.end());
  uint64_t replayed = 0;
  SeqNum max_seq = 0;
  uint8_t type;
  std::string payload;
  for (const uint64_t gen : gens) {
    // A buffer sealed or flushed while this file replays leaves a fresh
    // one whose entries come from this generation on.
    wal_gen_ = gen;
    auto reader_or = WalReader::Open(WalPath(dir, gen));
    if (!reader_or.ok()) return reader_or.status();
    std::unique_ptr<WalReader> reader = std::move(reader_or).value();
    while (reader->Next(&type, &payload)) {
      // Unknown record types and malformed payloads are skipped, not
      // fatal: the prefix property only depends on the framing CRC.
      if (type != kWalEntryRecord || payload.size() != kEncodedEntryBytes) {
        continue;
      }
      const Entry e = DecodeEntry(payload.data());
      ENDURE_RETURN_IF_ERROR(ReplayEntry(e));
      max_seq = std::max(max_seq, e.seq);
      ++replayed;
    }
  }
  if (max_seq >= next_seq_) next_seq_ = max_seq + 1;
  stats_->wal_replayed_entries += replayed;
  return replayed;
}

Status LsmTree::AttachDurability(const std::string& dir,
                                 WalFlushService* flush_service) {
  ENDURE_CHECK_MSG(opts_.durability && file_store_ != nullptr,
                   "AttachDurability requires Options::durability");
  // Log to a fresh generation past every file replay read: the newest
  // of those may end in a torn record, and appends behind a tear would
  // be invisible to the next replay.
  Statistics* stats = stats_;
  auto wal_or =
      WalWriter::Open(dir, wal_gen_ + 1, opts_.wal_sync_mode,
                      [stats] { ++stats->wal_syncs; }, flush_service);
  if (!wal_or.ok()) return wal_or.status();
  wal_ = std::move(wal_or).value();
  wal_gen_ = wal_->generation();
  wal_->PrepareRotation();
  {
    std::lock_guard<std::mutex> lock(publish_mu_);
    durable_dir_ = dir;
  }
  // The directory is consistent the moment durable operation begins.
  Status s = PublishManifestIfDurable();
  if (s.ok()) s = RemoveStaleWals();
  if (!s.ok()) {
    std::lock_guard<std::mutex> lock(publish_mu_);
    durable_dir_.clear();
  }
  return s;
}

Status LsmTree::RemoveStaleWals() {
  // WAL files below the oldest live generation are leftovers of a crash
  // between a manifest landing and the unlinks it allowed (or a
  // version-1 tree's single log once its contents reached runs), and a
  // version-1 tree's interrupted rewrite temp file is garbage outright.
  const uint64_t oldest_live = OldestLiveWalGen();
  auto names = ListDir(durable_dir_);
  if (!names.ok()) return names.status();
  for (const std::string& name : *names) {
    const std::optional<uint64_t> gen = ParseWalFileName(name);
    if ((gen.has_value() && *gen < oldest_live) ||
        name == "wal.log.rewrite") {
      ENDURE_RETURN_IF_ERROR(RemoveFile(durable_dir_ + "/" + name));
    }
  }
  std::lock_guard<std::mutex> lock(publish_mu_);
  unretired_wal_gen_ = oldest_live;
  return Status::OK();
}

void LsmTree::CrashForTesting() {
  if (wal_ != nullptr) {
    wal_->Abandon();
    wal_.reset();
  }
  std::lock_guard<std::mutex> lock(publish_mu_);
  durable_dir_.clear();  // no further publications; files stay as-is
}

StatusOr<bool> LoadDurableState(const std::string& dir, Options* opts,
                                ManifestData* m) {
  const std::string path = dir + "/" + kManifestFileName;
  if (!FileExists(path)) return false;
  auto m_or = ReadManifest(path);
  if (!m_or.ok()) return m_or.status();
  *m = std::move(m_or).value();
  if (m->entries_per_page != opts->entries_per_page) {
    return Status::InvalidArgument(
        "entries_per_page does not match the persisted deployment");
  }
  m->ApplyTuningTo(opts);
  ENDURE_RETURN_IF_ERROR(opts->Validate());
  return true;
}

Status RecoverAndAttach(LsmTree* tree, const ManifestData& m,
                        bool existing, const std::string& dir,
                        WalFlushService* flush_service) {
  if (existing) {
    ENDURE_RETURN_IF_ERROR(tree->RecoverFrom(m));
    auto replayed = tree->ReplayWal(dir);
    if (!replayed.ok()) return replayed.status();
    ++tree->stats()->recoveries;
  }
  return tree->AttachDurability(dir, flush_service);
}

}  // namespace endure::lsm
