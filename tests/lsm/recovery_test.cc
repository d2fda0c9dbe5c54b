// Crash-recovery unit suite (docs/durability.md): manifest round-trips,
// close-then-reopen and kill-then-reopen on one-shard and multi-shard
// ShardedDB deployments, persisted tunings, recover-mid-migration,
// orphan segment cleanup, sync-mode guarantees and the durability
// statistics counters. The randomized kill-point differential harness
// lives in differential_test.cc.

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "bridge/tuned_db.h"
#include "lsm/lsm_tree.h"
#include "lsm/manifest.h"
#include "lsm/page_store.h"
#include "lsm/sharded_db.h"
#include "testing/reference_model.h"
#include "util/env.h"
#include "util/fault_injection.h"
#include "util/wal.h"

namespace endure::lsm {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = "/tmp/endure_recovery_test_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

Options DurableOpts(const std::string& dir) {
  Options o;
  o.size_ratio = 4;
  o.buffer_entries = 64;
  o.entries_per_page = 4;
  o.filter_bits_per_entry = 6.0;
  o.backend = StorageBackend::kFile;
  o.storage_dir = dir;
  o.durability = true;
  o.wal_sync_mode = WalSyncMode::kPerBatch;
  return o;
}

/// A durable tree with no ShardedDB (and so no scheduler) around it, for
/// states a maintenance pool would drain behind the test's back: a
/// pending sealed buffer, a migration stopped after one step. Runs the
/// per-tree open-recover sequence ShardedDB::Open runs per shard, but
/// at opts.storage_dir itself.
struct DurableTree {
  Statistics stats;
  std::unique_ptr<PageStore> store;
  std::unique_ptr<LsmTree> tree;
};

std::unique_ptr<DurableTree> OpenDurableTree(Options opts) {
  auto t = std::make_unique<DurableTree>();
  EXPECT_TRUE(EnsureDir(opts.storage_dir).ok());
  ManifestData m;
  const StatusOr<bool> existing =
      LoadDurableState(opts.storage_dir, &opts, &m);
  EXPECT_TRUE(existing.ok());
  t->store = MakePageStore(opts.entries_per_page, &t->stats,
                           static_cast<int>(opts.backend), opts.storage_dir,
                           /*persistent=*/true);
  t->tree = std::make_unique<LsmTree>(opts, t->store.get(), &t->stats);
  EXPECT_TRUE(RecoverAndAttach(t->tree.get(), m, existing.value_or(false),
                               opts.storage_dir)
                  .ok());
  return t;
}

TEST(ManifestTest, RoundTripsState) {
  const std::string dir = FreshDir("manifest_roundtrip");
  ASSERT_TRUE(EnsureDir(dir).ok());
  ManifestData m;
  m.size_ratio = 7;
  m.policy = static_cast<int>(CompactionPolicy::kTiering);
  m.buffer_entries = 321;
  m.filter_bits_per_entry = 8.25;
  m.filter_allocation = static_cast<int>(FilterAllocation::kUniform);
  m.fence_pointer_skip = false;
  m.entries_per_page = 16;
  m.kind = kManifestKindShardedRoot;
  m.num_shards = 5;
  m.tuning_epoch = 9;
  m.migration_pending = true;
  m.next_seq = 12345;
  m.next_file_id = 42;
  m.levels = {{{3, 100, 9, 5.5}, {2, 50, 8, 4.0}}, {}, {{1, 900, 7, 3.0}}};

  const std::string path = dir + "/" + kManifestFileName;
  ASSERT_TRUE(WriteManifest(path, m).ok());
  auto read = ReadManifest(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->size_ratio, m.size_ratio);
  EXPECT_EQ(read->policy, m.policy);
  EXPECT_EQ(read->buffer_entries, m.buffer_entries);
  EXPECT_EQ(read->filter_bits_per_entry, m.filter_bits_per_entry);
  EXPECT_EQ(read->filter_allocation, m.filter_allocation);
  EXPECT_EQ(read->fence_pointer_skip, m.fence_pointer_skip);
  EXPECT_EQ(read->entries_per_page, m.entries_per_page);
  EXPECT_EQ(read->kind, m.kind);
  EXPECT_EQ(read->num_shards, m.num_shards);
  EXPECT_EQ(read->tuning_epoch, m.tuning_epoch);
  EXPECT_EQ(read->migration_pending, m.migration_pending);
  EXPECT_EQ(read->next_seq, m.next_seq);
  EXPECT_EQ(read->next_file_id, m.next_file_id);
  ASSERT_EQ(read->levels.size(), 3u);
  ASSERT_EQ(read->levels[0].size(), 2u);
  EXPECT_EQ(read->levels[0][1].segment, 2u);
  EXPECT_EQ(read->levels[0][1].bloom_bits_per_entry, 4.0);
  EXPECT_EQ(read->levels[2][0].num_entries, 900u);
}

TEST(ManifestTest, RejectsCorruption) {
  const std::string dir = FreshDir("manifest_corrupt");
  ASSERT_TRUE(EnsureDir(dir).ok());
  const std::string path = dir + "/" + kManifestFileName;
  ASSERT_TRUE(WriteManifest(path, ManifestData{}).ok());
  auto blob = ReadFileToString(path);
  ASSERT_TRUE(blob.ok());
  std::string mangled = std::move(blob).value();
  mangled[mangled.size() / 2] ^= 0x01;
  ASSERT_TRUE(WriteFileAtomic(path, mangled).ok());
  EXPECT_FALSE(ReadManifest(path).ok());
}

TEST(RecoveryTest, DurabilityRequiresFileBackend) {
  Options o = DurableOpts("/tmp/unused");
  o.backend = StorageBackend::kMemory;
  EXPECT_FALSE(o.Validate().ok());
}

TEST(RecoveryTest, FreshOpenThenCleanCloseThenReopen) {
  const std::string dir = FreshDir("clean_close");
  std::map<Key, Value> oracle;
  {
    auto db = ShardedDB::Open(DurableOpts(dir));
    ASSERT_TRUE(db.ok());
    for (Key k = 0; k < 500; ++k) {
      (*db)->Put(k, k * 3 + 1);
      oracle[k] = k * 3 + 1;
    }
    for (Key k = 0; k < 500; k += 5) {
      (*db)->Delete(k);
      oracle.erase(k);
    }
    // Clean close: destructor syncs the WAL whatever the mode.
  }
  auto db = ShardedDB::Open(DurableOpts(dir));
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->TotalStats().recoveries.load(), 1u);
  for (Key k = 0; k < 500; ++k) {
    const auto got = (*db)->Get(k);
    const auto want = oracle.find(k);
    ASSERT_EQ(got.has_value(), want != oracle.end()) << "key " << k;
    if (got.has_value()) EXPECT_EQ(*got, want->second);
  }
  const auto scanned = (*db)->Scan(0, ~0ull).value();
  EXPECT_EQ(scanned.size(), oracle.size());
}

TEST(RecoveryTest, KillAfterAckedWritesLosesNothingPerBatch) {
  const std::string dir = FreshDir("kill_perbatch");
  std::map<Key, Value> oracle;
  {
    auto db = ShardedDB::Open(DurableOpts(dir));
    ASSERT_TRUE(db.ok());
    // Enough to cross several flush/compaction edges, then more writes
    // that stay memtable-resident (covered only by the WAL).
    for (Key k = 0; k < 700; ++k) {
      (*db)->Put(k, ~k);
      oracle[k] = ~k;
    }
    (*db)->CrashForTesting();
  }
  auto db = ShardedDB::Open(DurableOpts(dir));
  ASSERT_TRUE(db.ok());
  EXPECT_GT((*db)->TotalStats().wal_replayed_entries.load(), 0u);
  for (const auto& [k, v] : oracle) {
    const auto got = (*db)->Get(k);
    ASSERT_TRUE(got.has_value()) << "acked write lost: key " << k;
    EXPECT_EQ(*got, v);
  }
  EXPECT_EQ((*db)->Scan(0, ~0ull).value().size(), oracle.size());
}

TEST(RecoveryTest, SealedBufferSurvivesKill) {
  const std::string dir = FreshDir("sealed");
  Options o = DurableOpts(dir);
  o.background_maintenance = true;  // full buffers seal instead of flush
  {
    auto t = OpenDurableTree(o);
    // 2.5 buffers with no scheduler: one sealed, the rest absorbed by
    // the active buffer past its capacity — nothing flushed.
    for (Key k = 0; k < o.buffer_entries * 5 / 2; ++k) {
      ASSERT_TRUE(t->tree->Put(k, k + 7).ok());
    }
    ASSERT_TRUE(t->tree->HasSealedMemtable());
    EXPECT_EQ(t->stats.flushes, 0u);
    t->tree->CrashForTesting();
  }
  auto t = OpenDurableTree(o);
  for (Key k = 0; k < o.buffer_entries * 5 / 2; ++k) {
    const auto got = t->tree->Get(k);
    ASSERT_TRUE(got.has_value()) << "key " << k << " lost behind the seal";
    EXPECT_EQ(*got, k + 7);
  }
}

TEST(RecoveryTest, PutBatchGroupCommitSurvivesKill) {
  const std::string dir = FreshDir("putbatch");
  std::map<Key, Value> oracle;
  {
    auto db = ShardedDB::Open(DurableOpts(dir));
    ASSERT_TRUE(db.ok());
    std::vector<std::pair<Key, Value>> batch;
    for (Key k = 0; k < 300; ++k) {
      batch.emplace_back(k * 2, k);
      oracle[k * 2] = k;
    }
    (*db)->PutBatch(batch);
    EXPECT_EQ((*db)->TotalStats().wal_records.load(), 300u);
    (*db)->CrashForTesting();
  }
  auto db = ShardedDB::Open(DurableOpts(dir));
  ASSERT_TRUE(db.ok());
  for (const auto& [k, v] : oracle) {
    const auto got = (*db)->Get(k);
    ASSERT_TRUE(got.has_value()) << "batched write lost: key " << k;
    EXPECT_EQ(*got, v);
  }
}

TEST(RecoveryTest, AppliedTuningSurvivesKill) {
  const std::string dir = FreshDir("tuning");
  const Options base = DurableOpts(dir);
  Options tuned = base;
  tuned.policy = CompactionPolicy::kTiering;
  tuned.size_ratio = 3;
  tuned.filter_bits_per_entry = 9.0;
  tuned.buffer_entries = base.buffer_entries * 2;
  {
    auto db = ShardedDB::Open(base);
    ASSERT_TRUE(db.ok());
    for (Key k = 0; k < 400; ++k) (*db)->Put(k, k);
    ASSERT_TRUE((*db)->ApplyTuning(tuned).ok());
    (*db)->CrashForTesting();
  }
  // Reopen with the ORIGINAL options: the persisted tuning must win.
  auto db = ShardedDB::Open(base);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->options().policy, CompactionPolicy::kTiering);
  EXPECT_EQ((*db)->options().size_ratio, 3);
  EXPECT_EQ((*db)->options().filter_bits_per_entry, 9.0);
  EXPECT_EQ((*db)->options().buffer_entries, base.buffer_entries * 2);
  EXPECT_EQ((*db)->shard_tree(0).options().policy, CompactionPolicy::kTiering);
  for (Key k = 0; k < 400; ++k) {
    ASSERT_EQ((*db)->Get(k).value_or(~0ull), k);
  }
}

TEST(RecoveryTest, ResumesMidMigrationExactlyWhereItStopped) {
  const std::string dir = FreshDir("mid_migration");
  // Tiering leaves multi-run levels, so migrating to leveling has real
  // per-level work for the migration units to be killed in the middle of.
  Options base = DurableOpts(dir);
  base.policy = CompactionPolicy::kTiering;
  Options tuned = base;
  tuned.policy = CompactionPolicy::kLeveling;
  tuned.size_ratio = 3;
  tuned.filter_bits_per_entry = 3.0;

  uint64_t epoch_at_kill = 0;
  MigrationProgress progress_at_kill;
  {
    auto t = OpenDurableTree(base);
    for (Key k = 0; k < 2000; ++k) ASSERT_TRUE(t->tree->Put(k, k + 1).ok());
    // Reconfigure the bare tree (ShardedDB::ApplyTuning would converge)
    // and run exactly one migration unit through all four phases, then
    // die mid-flight.
    ASSERT_TRUE(t->tree->Reconfigure(tuned).ok());
    MaintenanceUnit unit = t->tree->PrepareMaintenance();
    ASSERT_EQ(unit.kind, MaintenanceUnit::Kind::kCompaction);
    ASSERT_EQ(unit.priority, 1);
    ASSERT_TRUE(t->tree->ExecuteMaintenance(&unit, /*limiter=*/nullptr).ok());
    ASSERT_TRUE(t->tree->InstallMaintenance(&unit).ok());
    ASSERT_TRUE(t->tree->PublishMaintenance(&unit).ok());
    ASSERT_EQ(t->stats.migration_steps.load(), 1u);
    ASSERT_TRUE(t->tree->MigrationPending());
    epoch_at_kill = t->tree->tuning_epoch();
    progress_at_kill = t->tree->Progress();
    t->tree->CrashForTesting();
  }
  auto t = OpenDurableTree(base);
  // The reopened tree is mid-migration under the persisted tuning, with
  // the identical epoch and per-run progress the kill interrupted.
  EXPECT_EQ(t->tree->tuning_epoch(), epoch_at_kill);
  EXPECT_TRUE(t->tree->MigrationPending());
  const MigrationProgress progress = t->tree->Progress();
  EXPECT_EQ(progress.epoch, progress_at_kill.epoch);
  EXPECT_EQ(progress.runs_total, progress_at_kill.runs_total);
  EXPECT_EQ(progress.runs_current, progress_at_kill.runs_current);
  EXPECT_EQ(progress.entries_current, progress_at_kill.entries_current);
  EXPECT_EQ(progress.nonconforming_levels,
            progress_at_kill.nonconforming_levels);
  // Resume: the remaining units pick up and converge; contents intact.
  ASSERT_TRUE(t->tree->DrainMaintenance().ok());
  EXPECT_FALSE(t->tree->MigrationPending());
  EXPECT_TRUE(t->tree->Progress().structure_conforming());
  for (Key k = 0; k < 2000; ++k) {
    ASSERT_EQ(t->tree->Get(k).value_or(0), k + 1);
  }
}

TEST(RecoveryTest, OrphanSegmentsAreReaped) {
  const std::string dir = FreshDir("orphans");
  {
    auto db = ShardedDB::Open(DurableOpts(dir));
    ASSERT_TRUE(db.ok());
    for (Key k = 0; k < 300; ++k) (*db)->Put(k, k);
    (*db)->Flush();
  }
  // A crash between a segment write and the manifest leaves a file no
  // manifest references; recovery must reap it.
  const std::string orphan = dir + "/shard_0/seg_424242.run";
  ASSERT_TRUE(WriteFileAtomic(orphan, "garbage").ok());
  auto db = ShardedDB::Open(DurableOpts(dir));
  ASSERT_TRUE(db.ok());
  EXPECT_FALSE(FileExists(orphan));
  for (Key k = 0; k < 300; ++k) {
    ASSERT_EQ((*db)->Get(k).value_or(~0ull), k);
  }
}

TEST(RecoveryTest, CleanCloseIsDurableUnderEverySyncMode) {
  for (const WalSyncMode mode :
       {WalSyncMode::kNone, WalSyncMode::kBackground,
        WalSyncMode::kPerBatch}) {
    const std::string dir =
        FreshDir("mode_" + std::to_string(static_cast<int>(mode)));
    Options o = DurableOpts(dir);
    o.wal_sync_mode = mode;
    o.wal_sync_interval_ms = 1;
    {
      auto db = ShardedDB::Open(o);
      ASSERT_TRUE(db.ok());
      for (Key k = 0; k < 200; ++k) (*db)->Put(k, k + 11);
    }
    auto db = ShardedDB::Open(o);
    ASSERT_TRUE(db.ok());
    for (Key k = 0; k < 200; ++k) {
      ASSERT_EQ((*db)->Get(k).value_or(0), k + 11)
          << "mode " << static_cast<int>(mode);
    }
  }
}

TEST(RecoveryTest, ShardedDeploymentRecovers) {
  const std::string dir = FreshDir("sharded");
  Options o = DurableOpts(dir);
  o.num_shards = 4;
  o.background_maintenance = true;
  std::map<Key, Value> oracle;
  {
    auto db = ShardedDB::Open(o);
    ASSERT_TRUE(db.ok());
    for (Key k = 0; k < 1200; ++k) {
      (*db)->Put(k, k * 7);
      oracle[k] = k * 7;
    }
    for (Key k = 0; k < 1200; k += 9) {
      (*db)->Delete(k);
      oracle.erase(k);
    }
    (*db)->WaitForMaintenance();
    (*db)->CrashForTesting();
  }
  auto db = ShardedDB::Open(o);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db.value()->TotalStats().recoveries.load(), 4u);
  for (Key k = 0; k < 1200; ++k) {
    const auto got = db.value()->Get(k);
    const auto want = oracle.find(k);
    ASSERT_EQ(got.has_value(), want != oracle.end()) << "key " << k;
    if (got.has_value()) EXPECT_EQ(*got, want->second);
  }
  EXPECT_EQ(db.value()->Scan(0, ~0ull).value().size(), oracle.size());
}

TEST(RecoveryTest, ShardCountIsImmutableAcrossReopens) {
  const std::string dir = FreshDir("shard_count");
  Options o = DurableOpts(dir);
  o.num_shards = 4;
  {
    auto db = ShardedDB::Open(o);
    ASSERT_TRUE(db.ok());
    db.value()->Put(1, 1);
  }
  Options wrong = o;
  wrong.num_shards = 2;
  EXPECT_FALSE(ShardedDB::Open(wrong).ok());
}

TEST(RecoveryTest, RejectsATreeManifestAtTheDeploymentRoot) {
  // A single tree's durable directory (its manifest at the root, where a
  // deployment keeps its root manifest) must be refused, not opened as
  // a fresh empty shard_0 beside the tree's data — even at num_shards ==
  // 1, where the recorded shard count cannot tell the layouts apart.
  const std::string dir = FreshDir("tree_at_root");
  {
    auto t = OpenDurableTree(DurableOpts(dir));
    ASSERT_TRUE(t->tree->Put(5, 55).ok());
  }
  const auto db = ShardedDB::Open(DurableOpts(dir));
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(FileExists(dir + "/shard_0"));
}

TEST(RecoveryTest, ShardedRetuneSurvivesRestart) {
  const std::string dir = FreshDir("sharded_retune");
  Options o = DurableOpts(dir);
  o.num_shards = 3;
  o.background_maintenance = true;
  Options tuned = o;
  tuned.policy = CompactionPolicy::kLazyLeveling;
  tuned.size_ratio = 6;
  tuned.filter_bits_per_entry = 8.0;
  {
    auto db = ShardedDB::Open(o);
    ASSERT_TRUE(db.ok());
    for (Key k = 0; k < 900; ++k) db.value()->Put(k, k);
    ASSERT_TRUE(db.value()->ApplyTuning(tuned).ok());
    db.value()->WaitForMaintenance();
    db.value()->CrashForTesting();
  }
  auto db = ShardedDB::Open(o);  // stale knobs: persisted tuning wins
  ASSERT_TRUE(db.ok());
  const Options reopened = db.value()->options();
  EXPECT_EQ(reopened.policy, CompactionPolicy::kLazyLeveling);
  EXPECT_EQ(reopened.size_ratio, 6);
  EXPECT_EQ(reopened.filter_bits_per_entry, 8.0);
  db.value()->WaitForMaintenance();
  EXPECT_TRUE(db.value()->Progress().structure_conforming());
  for (Key k = 0; k < 900; ++k) {
    ASSERT_EQ(db.value()->Get(k).value_or(~0ull), k);
  }
}

class RecoveryShardsTest : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(ShardCounts, RecoveryShardsTest,
                         ::testing::Values(1, 2));

TEST_P(RecoveryShardsTest, LockFileRejectsASecondOpener) {
  const int num_shards = GetParam();
  Options o = DurableOpts(FreshDir("lock_" + std::to_string(num_shards)));
  o.num_shards = num_shards;
  auto first = ShardedDB::Open(o);
  ASSERT_TRUE(first.ok());
  // A second process (simulated: a second instance) must be refused
  // while the first holds the deployment.
  EXPECT_FALSE(ShardedDB::Open(o).ok());
  first->reset();  // releases the lock
  EXPECT_TRUE(ShardedDB::Open(o).ok());
}

TEST(RecoveryTest, OpenTunedShardedDbRecoversInsteadOfRebuilding) {
  const std::string dir = FreshDir("bridge");
  SystemConfig cfg;
  const Tuning t(Policy::kLeveling, 6.0, 5.0);
  uint64_t loaded_entries = 0;
  {
    auto db = bridge::OpenTunedShardedDb(
        cfg, t, /*actual_entries=*/3000, /*num_shards=*/2,
        /*background_maintenance=*/true, StorageBackend::kMemory, dir,
        WalSyncMode::kPerBatch);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    (*db)->Put(1, 99);  // odd key: provably post-load
    (*db)->WaitForMaintenance();
    loaded_entries = (*db)->TotalEntries();
    (*db)->CrashForTesting();
  }
  auto db = bridge::OpenTunedShardedDb(
      cfg, t, 3000, 2, true, StorageBackend::kMemory, dir,
      WalSyncMode::kPerBatch);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  // Recovered, not rebuilt: the post-load write survived alongside the
  // loaded universe (a rebuild would have dropped key 1 and failed
  // BulkLoad's empty-shard precondition anyway).
  EXPECT_EQ((*db)->Get(1).value_or(0), 99u);
  EXPECT_EQ((*db)->Get(2 * 1500).value_or(1), 1500u);
  EXPECT_EQ((*db)->TotalEntries(), loaded_entries);

  // A manifest without the bulk-load marker is an interrupted initial
  // load and must be refused, not served half-empty.
  db->reset();
  ASSERT_TRUE(RemoveFile(dir + "/bulk_loaded").ok());
  auto refused = bridge::OpenTunedShardedDb(
      cfg, t, 3000, 2, true, StorageBackend::kMemory, dir,
      WalSyncMode::kPerBatch);
  EXPECT_FALSE(refused.ok());
}

// Entries under a /proc/self/* directory: live thread count (task) or
// open descriptor count (fd). 0 when /proc is unavailable (non-Linux).
size_t CountProc(const std::string& what) {
  auto names = ListDir("/proc/self/" + what);
  return names.ok() ? names->size() : 0;
}

// The kill+reopen matrix at 8 shards, through the concurrent open (the
// default) and the forced-serial open, for every sync mode.
// CrashForTesting preserves committed write()s (a process kill, not a
// machine crash), so the full oracle must survive in all modes.
TEST(RecoveryTest, EightShardKillReopenMatrixThroughParallelOpen) {
  for (const WalSyncMode mode :
       {WalSyncMode::kNone, WalSyncMode::kBackground,
        WalSyncMode::kPerBatch}) {
    const std::string dir =
        FreshDir("matrix8_" + std::to_string(static_cast<int>(mode)));
    Options o = DurableOpts(dir);
    o.num_shards = 8;
    o.background_maintenance = true;
    o.wal_sync_mode = mode;
    o.wal_sync_interval_ms = 1;
    std::map<Key, Value> oracle;
    {
      auto db = ShardedDB::Open(o);
      ASSERT_TRUE(db.ok());
      for (Key k = 0; k < 1600; ++k) {
        db.value()->Put(k, k * 13);
        oracle[k] = k * 13;
      }
      for (Key k = 0; k < 1600; k += 7) {
        db.value()->Delete(k);
        oracle.erase(k);
      }
      db.value()->WaitForMaintenance();
      db.value()->CrashForTesting();
    }
    {
      // Default open: shards recover concurrently.
      auto db = ShardedDB::Open(o);
      ASSERT_TRUE(db.ok());
      EXPECT_EQ(db.value()->TotalStats().recoveries.load(), 8u);
      for (Key k = 0; k < 1600; ++k) {
        const auto got = db.value()->Get(k);
        const auto want = oracle.find(k);
        ASSERT_EQ(got.has_value(), want != oracle.end())
            << "mode " << static_cast<int>(mode) << " key " << k;
        if (got.has_value()) EXPECT_EQ(*got, want->second);
      }
      db.value()->CrashForTesting();
    }
    // Forced-serial open recovers the identical state.
    Options serial = o;
    serial.recovery_threads = 1;
    auto db = ShardedDB::Open(serial);
    ASSERT_TRUE(db.ok());
    EXPECT_EQ(db.value()->TotalStats().recoveries.load(), 8u);
    EXPECT_EQ(db.value()->Scan(0, ~0ull).value().size(), oracle.size());
  }
}

TEST(RecoveryTest, RecoverMidMigrationThroughParallelOpenAtEightShards) {
  const std::string dir = FreshDir("parallel_mid_migration");
  Options o = DurableOpts(dir);
  o.num_shards = 8;
  o.background_maintenance = true;
  o.policy = CompactionPolicy::kTiering;
  Options tuned = o;
  tuned.policy = CompactionPolicy::kLeveling;
  tuned.size_ratio = 3;
  tuned.filter_bits_per_entry = 3.0;
  {
    auto db = ShardedDB::Open(o);
    ASSERT_TRUE(db.ok());
    for (Key k = 0; k < 4000; ++k) db.value()->Put(k, k + 5);
    // Retune and die without waiting: the in-flight migration state is
    // whatever the maintenance pool got to before the crash point.
    ASSERT_TRUE(db.value()->ApplyTuning(tuned).ok());
    db.value()->CrashForTesting();
  }
  auto db = ShardedDB::Open(o);  // stale knobs: persisted tuning wins
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db.value()->options().policy, CompactionPolicy::kLeveling);
  EXPECT_EQ(db.value()->options().size_ratio, 3);
  db.value()->WaitForMaintenance();
  EXPECT_TRUE(db.value()->Progress().structure_conforming());
  for (Key k = 0; k < 4000; ++k) {
    ASSERT_EQ(db.value()->Get(k).value_or(0), k + 5);
  }
}

TEST(RecoveryTest, CorruptShardManifestFailsParallelOpenCleanly) {
  const std::string dir = FreshDir("corrupt_shard");
  Options o = DurableOpts(dir);
  o.num_shards = 8;
  o.background_maintenance = true;
  o.wal_sync_mode = WalSyncMode::kBackground;  // flush service in play
  {
    auto db = ShardedDB::Open(o);
    ASSERT_TRUE(db.ok());
    for (Key k = 0; k < 800; ++k) db.value()->Put(k, k);
    db.value()->WaitForMaintenance();
  }
  // Corrupt one shard's manifest; the whole open must fail (with that
  // shard's error), and the partial open must leak nothing: no threads
  // (recovery pool, flush service, maintenance pool, WAL flushers), no
  // fds (WAL appenders, segment files, LOCK), and the LOCK released.
  const std::string victim = dir + "/shard_5/" + kManifestFileName;
  auto blob = ReadFileToString(victim);
  ASSERT_TRUE(blob.ok());
  std::string mangled = *blob;
  mangled[mangled.size() / 2] ^= 0x01;
  ASSERT_TRUE(WriteFileAtomic(victim, mangled).ok());

  const size_t threads_before = CountProc("task");
  const size_t fds_before = CountProc("fd");
  auto failed = ShardedDB::Open(o);
  EXPECT_FALSE(failed.ok());
  if (threads_before > 0) {
    EXPECT_EQ(CountProc("task"), threads_before) << "leaked threads";
    EXPECT_EQ(CountProc("fd"), fds_before) << "leaked fds";
  }

  // Restore the manifest: the deployment reopens (proving the failed
  // attempt released the LOCK) with every shard intact.
  ASSERT_TRUE(WriteFileAtomic(victim, *blob).ok());
  auto db = ShardedDB::Open(o);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db.value()->TotalStats().recoveries.load(), 8u);
  for (Key k = 0; k < 800; ++k) {
    ASSERT_EQ(db.value()->Get(k).value_or(~0ull), k);
  }
}

TEST(RecoveryTest, SingleFlushServiceThreadRegardlessOfShardCount) {
  if (CountProc("task") == 0) {
    GTEST_SKIP() << "/proc/self/task unavailable";
  }
  Options o = DurableOpts(FreshDir("one_flusher"));
  o.num_shards = 8;
  o.background_maintenance = false;  // no maintenance pool in the count
  o.wal_sync_mode = WalSyncMode::kBackground;
  o.wal_sync_interval_ms = 5;
  // Throwaway open/close first: lazily-spawned runtime threads (TSan's
  // background thread, malloc arenas) must not land in the deltas.
  { auto warm = ShardedDB::Open(o); ASSERT_TRUE(warm.ok()); }
  const size_t before = CountProc("task");
  auto db = ShardedDB::Open(o);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(CountProc("task"), before + 1)
      << "the flush service must run exactly one thread for 8 shards";
}

// Regression for flusher churn: a WAL switch must not tear down and
// recreate background-sync state. A writer recreated per switch would
// restart its interval clock, so a sub-interval switch cadence would
// postpone the background fsync forever; the writer survives rotations
// and the flush service's tick clock keeps running.
TEST(RecoveryTest, RotationChurnCannotStarveBackgroundSyncs) {
  Options o = DurableOpts(FreshDir("churn"));
  o.wal_sync_mode = WalSyncMode::kBackground;
  o.wal_sync_interval_ms = 25;
  auto db = ShardedDB::Open(o);
  ASSERT_TRUE(db.ok());
  // Rotate every few milliseconds for several intervals: each Put
  // dirties the WAL and stays unsynced across the sleep, each Flush
  // rotates to a fresh generation (and retires the old one). With a
  // recreate-per-switch writer the interval clock would restart at every
  // Flush and no background fsync could ever fire; with the surviving
  // writer the global tick lands in the dirty windows.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(400);
  Key k = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    (*db)->Put(k++, k);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    (*db)->Flush();
  }
  EXPECT_GT((*db)->TotalStats().wal_rotations.load(), 2u);
  EXPECT_GT((*db)->TotalStats().wal_syncs.load(), 0u)
      << "background syncs starved by rotation churn";
  // And no busy double-sync either: a clean WAL stays untouched.
  (*db)->Put(k++, k);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const uint64_t settled = (*db)->TotalStats().wal_syncs.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ((*db)->TotalStats().wal_syncs.load(), settled)
      << "idle WAL re-synced every interval";
}

TEST(RecoveryTest, KillBetweenRotationAndFirstPostRotationSync) {
  Options o = DurableOpts(FreshDir("kill_after_rotation"));
  o.wal_sync_mode = WalSyncMode::kBackground;
  o.wal_sync_interval_ms = 60000;  // no background tick fires in-test
  {
    auto db = ShardedDB::Open(o);
    ASSERT_TRUE(db.ok());
    for (Key k = 0; k < 300; ++k) (*db)->Put(k, k + 1);
    (*db)->Flush();          // rotate, flush, publish, retire the old log
    (*db)->Put(1000, 1001);  // committed to the new log, never fsynced
    (*db)->CrashForTesting();
  }
  auto db = ShardedDB::Open(o);
  ASSERT_TRUE(db.ok());
  for (Key k = 0; k < 300; ++k) {
    ASSERT_EQ((*db)->Get(k).value_or(0), k + 1);
  }
  // The post-rotation write survived the kill (process death keeps the
  // page cache) — proving the rotation left a well-framed log in a
  // generation recovery replays.
  EXPECT_EQ((*db)->Get(1000).value_or(0), 1001u);
}

// ------------------------------------------------ publication windows --
// Maintenance installs in memory under the shard lock and publishes the
// manifest after releasing it; a flush retires its WAL generations only
// once that manifest is durable. The cases below crash inside each
// window and compare the reopened deployment with the reference oracle.

/// Every key in [0, domain) reads back as the oracle has it, and a full
/// scan returns exactly the oracle's entries.
template <typename Engine>
void ExpectMatchesOracle(Engine* engine, const testing::ReferenceModel& oracle,
                         Key domain) {
  for (Key k = 0; k < domain; ++k) {
    ASSERT_EQ(engine->Get(k), oracle.Get(k)) << "key " << k;
  }
  const auto scanned = engine->Scan(0, ~0ull);
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(scanned->size(), oracle.size());
}

TEST(RecoveryTest, KillAfterInstallWhosePublishFailedLosesNothing) {
  const std::string dir = FreshDir("publish_failed");
  Options o = DurableOpts(dir);
  o.background_maintenance = true;
  o.background_max_retries = 1000;  // keep retrying; never latch in-test
  testing::ReferenceModel oracle;
  {
    ScopedFaultInjector fi;
    auto db = ShardedDB::Open(o);
    ASSERT_TRUE(db.ok());
    // Every manifest rename fails from here on: flush and compaction
    // installs still land in memory, but the manifest on disk stays the
    // one the open published.
    fi->Arm(FaultSite::kFileRename, {.count = UINT64_MAX, .err = EIO});
    for (Key k = 0; k < 600; ++k) {
      ASSERT_TRUE((*db)->Put(k % 250, k).ok());
      oracle.Put(k % 250, k);
      if (k % 9 == 0) {
        ASSERT_TRUE((*db)->Delete(k % 250 / 2).ok());
        oracle.Delete(k % 250 / 2);
      }
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while ((*db)->TotalStats().flushes.load() < 3 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_GE((*db)->TotalStats().flushes.load(), 3u);
    ASSERT_GE(fi->fired(FaultSite::kFileRename), 1u);
    EXPECT_TRUE((*db)->Health().ok());
    // The crash window: runs resident in memory, none in the manifest.
    auto on_disk = ReadManifest(dir + "/shard_0/" + kManifestFileName);
    ASSERT_TRUE(on_disk.ok());
    uint64_t runs_on_disk = 0;
    for (const auto& level : on_disk->levels) runs_on_disk += level.size();
    EXPECT_EQ(runs_on_disk, 0u);
    EXPECT_GT((*db)->Progress().runs_total, 0u);
    (*db)->CrashForTesting();
  }
  auto db = ShardedDB::Open(o);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ExpectMatchesOracle(db->get(), oracle, 250);
}

TEST(RecoveryTest, DrainFailingAfterItsFlushInstalledLosesNothing) {
  // A foreground write that fills the buffer drains the units back to
  // back and publishes the newest capture even when a later unit fails:
  // here the flush lands and the level-1 merge behind it does not.
  const std::string dir = FreshDir("failed_drain");
  Options o = DurableOpts(dir);
  o.buffer_entries = 16;
  Key acked_until = 0;
  {
    ScopedFaultInjector fi;
    auto db = ShardedDB::Open(o);
    ASSERT_TRUE(db.ok());
    for (Key k = 0; k < 16; ++k) ASSERT_TRUE((*db)->Put(k, k + 1).ok());
    acked_until = 16;
    const uint64_t manifests = (*db)->TotalStats().manifest_writes.load();
    // The next flush writes its four pages; the merge's first one fails.
    fi->Arm(FaultSite::kSegmentWrite, {.skip = 4, .count = 1, .err = EIO});
    Status refused;
    for (Key k = 16; k < 32 && refused.ok(); ++k) {
      refused = (*db)->Put(k, k + 1);
      if (refused.ok()) acked_until = k + 1;
    }
    ASSERT_FALSE(refused.ok()) << "the drain never hit the fault";
    EXPECT_EQ(acked_until, 31u);
    EXPECT_EQ(fi->fired(FaultSite::kSegmentWrite), 1u);
    EXPECT_FALSE((*db)->Health().ok()) << "the refused write must latch";
    // The installed flush is on disk; the merge that failed is not.
    EXPECT_EQ((*db)->TotalStats().manifest_writes.load(), manifests + 1);
    EXPECT_EQ((*db)->shard_tree(0).RunsInLevel(1), 2u);
    auto on_disk = ReadManifest(dir + "/shard_0/" + kManifestFileName);
    ASSERT_TRUE(on_disk.ok());
    ASSERT_FALSE(on_disk->levels.empty());
    EXPECT_EQ(on_disk->levels[0].size(), 2u);
    (*db)->CrashForTesting();
  }
  auto db = ShardedDB::Open(o);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  // Open drains what the failure left: level 1 merges into one run.
  EXPECT_EQ((*db)->shard_tree(0).RunsInLevel(1), 1u);
  EXPECT_TRUE((*db)->Progress().structure_conforming());
  EXPECT_TRUE((*db)->Health().ok());
  for (Key k = 0; k < acked_until; ++k) {
    ASSERT_EQ((*db)->Get(k).value_or(0), k + 1) << k;
  }
}

TEST(RecoveryTest, KillBeforeRetiredWalUnlinkReplaysOnlyLiveGenerations) {
  const std::string dir = FreshDir("retired_wal_left");
  Options o = DurableOpts(dir);
  o.background_maintenance = true;  // seal, then flush by hand below
  const Key n = static_cast<Key>(o.buffer_entries);
  testing::ReferenceModel oracle;
  std::map<std::string, std::string> retired;  // path -> bytes
  {
    auto t = OpenDurableTree(o);
    const auto flush_sealed = [&] {
      ASSERT_TRUE(t->tree->HasSealedMemtable());
      MaintenanceUnit unit = t->tree->PrepareMaintenance();
      ASSERT_EQ(unit.kind, MaintenanceUnit::Kind::kFlush);
      ASSERT_TRUE(t->tree->ExecuteMaintenance(&unit, /*limiter=*/nullptr).ok());
      ASSERT_TRUE(t->tree->InstallMaintenance(&unit).ok());
      // Installed in memory; the generations the sealed buffer logged to
      // are still on disk until the manifest lands.
      for (uint64_t gen = 1; gen < 8; ++gen) {
        const std::string path = WalPath(dir, gen);
        if (FileExists(path) && retired.count(path) == 0) {
          retired[path] = ReadFileToString(path).value();
        }
      }
      ASSERT_TRUE(t->tree->PublishMaintenance(&unit).ok());
    };
    // Two generations of the same keys: the first version is flushed and
    // its log retired, then the second version too.
    for (int version = 1; version <= 2; ++version) {
      for (Key k = 0; k <= n; ++k) {
        ASSERT_TRUE(t->tree->Put(k, k * 10 + version).ok());
        oracle.Put(k, k * 10 + version);
      }
      flush_sealed();
    }
    t->tree->CrashForTesting();
  }
  // The crash landed after the manifest was durable but before the
  // retired generations were unlinked: put them back.
  size_t restored = 0;
  for (const auto& [path, bytes] : retired) {
    if (FileExists(path)) continue;  // still live
    ASSERT_TRUE(WriteFileAtomic(path, bytes).ok());
    ++restored;
  }
  ASSERT_GE(restored, 2u);
  auto t = OpenDurableTree(o);
  // Replaying a retired generation would resurrect the first version of
  // every key over the flushed second one.
  ExpectMatchesOracle(t->tree.get(), oracle, n + 1);
  for (const auto& [path, bytes] : retired) {
    const std::optional<uint64_t> gen =
        ParseWalFileName(path.substr(dir.size() + 1));
    ASSERT_TRUE(gen.has_value());
    if (*gen < t->tree->ToManifest().wal_min_gen) {
      EXPECT_FALSE(FileExists(path)) << path << " survived the reopen";
    }
  }
}

TEST(RecoveryTest, StalePublicationNeverRollsTheManifestBack) {
  // Two flush installs capture manifests in order; their publications
  // race and land in the opposite order. The older capture must not
  // replace the newer manifest: the newer one already retired the
  // generation holding the second buffer's records.
  const std::string dir = FreshDir("stale_publication");
  Options o = DurableOpts(dir);
  o.background_maintenance = true;  // flush units driven by hand below
  const Key n = static_cast<Key>(o.buffer_entries);
  testing::ReferenceModel oracle;
  {
    auto t = OpenDurableTree(o);
    const auto install_flush = [&](Key base) -> MaintenanceUnit {
      for (Key k = 0; k <= n; ++k) {
        EXPECT_TRUE(t->tree->Put(base + k, base + k + 1).ok());
        oracle.Put(base + k, base + k + 1);
      }
      MaintenanceUnit unit = t->tree->PrepareMaintenance();
      EXPECT_EQ(unit.kind, MaintenanceUnit::Kind::kFlush);
      EXPECT_TRUE(t->tree->ExecuteMaintenance(&unit, /*limiter=*/nullptr).ok());
      EXPECT_TRUE(t->tree->InstallMaintenance(&unit).ok());
      EXPECT_TRUE(unit.publication.has_value());
      return unit;
    };
    MaintenanceUnit first = install_flush(0);
    MaintenanceUnit second = install_flush(1000);
    ASSERT_TRUE(t->tree->PublishMaintenance(&second).ok());
    ASSERT_TRUE(t->tree->PublishMaintenance(&first).ok());
    const auto on_disk = ReadManifest(dir + "/" + kManifestFileName);
    ASSERT_TRUE(on_disk.ok());
    ASSERT_FALSE(on_disk->levels.empty());
    EXPECT_EQ(on_disk->levels[0].size(), 2u) << "manifest rolled back";
    t->tree->CrashForTesting();
  }
  auto t = OpenDurableTree(o);
  for (Key k = 0; k <= n; ++k) {
    ASSERT_EQ(t->tree->Get(k), oracle.Get(k)) << k;
    ASSERT_EQ(t->tree->Get(1000 + k), oracle.Get(1000 + k)) << 1000 + k;
  }
}

TEST(RecoveryTest, WalOpenFailureAtSealRotationLosesNoAckedWrite) {
  // Background mode rotates when a full buffer seals; foreground mode
  // when the inline flush runs. Once the next generation cannot be
  // created — neither ahead of time nor by the rotation itself — the
  // write that needed it is refused and the shard latches, while
  // everything acknowledged stays in the old generation.
  for (const bool background : {true, false}) {
    SCOPED_TRACE(background ? "background" : "foreground");
    const std::string dir =
        FreshDir(std::string("rotation_open_") + (background ? "bg" : "fg"));
    Options o = DurableOpts(dir);
    o.background_maintenance = background;
    testing::ReferenceModel acked;
    std::optional<std::pair<Key, Value>> refused;
    {
      ScopedFaultInjector fi;
      auto db = ShardedDB::Open(o);
      ASSERT_TRUE(db.ok());
      fi->Arm(FaultSite::kWalOpen, {.count = UINT64_MAX, .err = EMFILE});
      for (Key k = 0; k < 3 * o.buffer_entries && !refused; ++k) {
        if ((*db)->Put(k, k + 3).ok()) {
          acked.Put(k, k + 3);
        } else {
          refused.emplace(k, k + 3);
        }
      }
      ASSERT_TRUE(refused.has_value()) << "no rotation was attempted";
      EXPECT_GE(fi->fired(FaultSite::kWalOpen), 1u);
      EXPECT_FALSE((*db)->Health().ok());
      EXPECT_FALSE((*db)->Put(999, 1).ok());
      fi->DisarmAll();
      (*db)->CrashForTesting();
    }
    auto db = ShardedDB::Open(o);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->Health().ok());
    // The refused write was applied but never logged: gone after a
    // crash. Everything acknowledged is back.
    EXPECT_FALSE((*db)->Get(refused->first).has_value());
    ExpectMatchesOracle(db->get(), acked, 3 * o.buffer_entries);
    ASSERT_TRUE((*db)->Put(refused->first, refused->second).ok());
  }
}

/// Rewrites a format-2 manifest as format 1: drops `wal_min_gen` (the
/// u64 at payload offset 61, after the cursors) and re-frames the blob.
void DowngradeManifestToFormatOne(const std::string& path) {
  const std::string blob = ReadFileToString(path).value();
  std::string payload = blob.substr(16);
  payload.erase(61, 8);
  const uint32_t version = 1;
  const uint32_t crc = Crc32(payload.data(), payload.size());
  const uint32_t len = static_cast<uint32_t>(payload.size());
  std::string out = blob.substr(0, 4);
  out.append(reinterpret_cast<const char*>(&version), 4);
  out.append(reinterpret_cast<const char*>(&crc), 4);
  out.append(reinterpret_cast<const char*>(&len), 4);
  ASSERT_TRUE(WriteFileAtomic(path, out + payload).ok());
}

TEST(RecoveryTest, FormatOneDirectoryRecoversItsSingleLog) {
  // A directory written before WAL generations existed: format-1
  // manifests and one wal.log per shard. It must open with every
  // acknowledged write, then leave the single log behind once a flush
  // retires it.
  const std::string dir = FreshDir("format_one");
  const Options o = DurableOpts(dir);
  testing::ReferenceModel oracle;
  {
    auto db = ShardedDB::Open(o);
    ASSERT_TRUE(db.ok());
    for (Key k = 0; k < 300; ++k) {
      ASSERT_TRUE((*db)->Put(k, k + 9).ok());
      oracle.Put(k, k + 9);
    }
    ASSERT_TRUE((*db)->Flush().ok());
    for (Key k = 250; k < 280; ++k) {  // memtable-resident overwrites
      ASSERT_TRUE((*db)->Put(k, k + 90).ok());
      oracle.Put(k, k + 90);
    }
    (*db)->CrashForTesting();
  }
  // Rewrite shard_0 into the old layout: the live generations, in order,
  // become the single wal.log.
  const std::string shard = dir + "/shard_0";
  const ManifestData m = ReadManifest(shard + "/" + kManifestFileName).value();
  std::string log;
  for (uint64_t gen = m.wal_min_gen; FileExists(WalPath(shard, gen)); ++gen) {
    log += ReadFileToString(WalPath(shard, gen)).value();
    ASSERT_TRUE(RemoveFile(WalPath(shard, gen)).ok());
  }
  ASSERT_FALSE(log.empty());
  ASSERT_TRUE(WriteFileAtomic(shard + "/wal.log", log).ok());
  DowngradeManifestToFormatOne(shard + "/" + kManifestFileName);
  DowngradeManifestToFormatOne(dir + "/" + kManifestFileName);
  ASSERT_EQ(ReadManifest(shard + "/" + kManifestFileName)->wal_min_gen, 0u);

  {
    auto db = ShardedDB::Open(o);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ExpectMatchesOracle(db->get(), oracle, 300);
    ASSERT_TRUE((*db)->Flush().ok());
    EXPECT_FALSE(FileExists(shard + "/wal.log"))
        << "the flushed single log was not retired";
  }
  auto db = ShardedDB::Open(o);
  ASSERT_TRUE(db.ok());
  ExpectMatchesOracle(db->get(), oracle, 300);
}

TEST(RecoveryTest, NewerManifestFormatIsRefusedByName) {
  const std::string dir = FreshDir("format_future");
  ASSERT_TRUE(EnsureDir(dir).ok());
  const std::string path = dir + "/" + kManifestFileName;
  ASSERT_TRUE(WriteManifest(path, ManifestData{}).ok());
  std::string blob = ReadFileToString(path).value();
  const uint32_t future = kManifestVersion + 1;
  blob.replace(4, 4, reinterpret_cast<const char*>(&future), 4);
  ASSERT_TRUE(WriteFileAtomic(path, blob).ok());
  const auto read = ReadManifest(path);
  ASSERT_FALSE(read.ok());
  EXPECT_NE(read.status().message().find("unsupported format version"),
            std::string::npos);
}

TEST(RecoveryTest, DurabilityCountersAggregateAcrossShards) {
  const std::string dir = FreshDir("counters");
  Options o = DurableOpts(dir);
  o.num_shards = 2;
  auto db = ShardedDB::Open(o);
  ASSERT_TRUE(db.ok());
  for (Key k = 0; k < 300; ++k) db.value()->Put(k, k);
  db.value()->Flush();
  const Statistics total = db.value()->TotalStats();
  EXPECT_EQ(total.wal_records.load(), 300u);
  EXPECT_GT(total.wal_bytes.load(), 0u);
  EXPECT_GT(total.wal_syncs.load(), 0u);  // kPerBatch: every commit syncs
  EXPECT_GT(total.manifest_writes.load(), 0u);
  // Accumulate must fold the durability counters like any others.
  uint64_t shard_sum = 0;
  for (size_t s = 0; s < db.value()->num_shards(); ++s) {
    shard_sum += db.value()->ShardStats(s).manifest_writes.load();
  }
  EXPECT_EQ(total.manifest_writes.load(), shard_sum);
}

}  // namespace
}  // namespace endure::lsm
