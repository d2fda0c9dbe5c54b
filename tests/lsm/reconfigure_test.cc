// Live reconfiguration semantics: which knobs may change on a running
// tree, how the buffer reseal behaves, how tuning epochs track Bloom
// migration, and how the incremental migration reshapes levels under
// policy and size-ratio changes — all without a rebuild and without
// changing visible contents. The differential and stress suites cover
// the concurrent side; this file pins the single-threaded mechanics.

#include <gtest/gtest.h>

#include <memory>

#include "lsm/lsm_tree.h"
#include "lsm/page_store.h"
#include "lsm/sharded_db.h"

namespace endure::lsm {
namespace {

Options BaseOpts() {
  Options o;
  o.size_ratio = 4;
  o.buffer_entries = 128;
  o.entries_per_page = 4;
  o.filter_bits_per_entry = 6.0;
  return o;
}

/// Fills `db` with `n` distinct keys (values key+1), flushing at the end
/// so everything lives in runs.
void Fill(ShardedDB* db, Key n) {
  for (Key k = 0; k < n; ++k) db->Put(k, k + 1);
  db->Flush();
}

template <typename DbT>
void ExpectAllReadable(DbT* db, Key n) {
  for (Key k = 0; k < n; ++k) {
    const auto got = db->Get(k);
    ASSERT_TRUE(got.has_value()) << "key " << k;
    ASSERT_EQ(*got, k + 1) << "key " << k;
  }
  const std::vector<Entry> all = db->Scan(0, n).value();
  ASSERT_EQ(all.size(), n);
}

TEST(ReconfigureTest, RejectsImmutableKnobChanges) {
  auto db = std::move(ShardedDB::Open(BaseOpts())).value();

  Options page = BaseOpts();
  page.entries_per_page = 8;
  EXPECT_FALSE(db->ApplyTuning(page).ok());

  Options backend = BaseOpts();
  backend.backend = StorageBackend::kFile;
  EXPECT_FALSE(db->ApplyTuning(backend).ok());

  Options background = BaseOpts();
  background.background_maintenance = true;
  EXPECT_FALSE(db->ApplyTuning(background).ok());

  Options invalid = BaseOpts();
  invalid.size_ratio = 1;
  EXPECT_FALSE(db->ApplyTuning(invalid).ok());

  Options shards = BaseOpts();
  shards.num_shards = 2;
  EXPECT_FALSE(db->ApplyTuning(shards).ok());

  // A failed apply leaves the tuning epoch untouched.
  EXPECT_EQ(db->shard_tree(0).tuning_epoch(), 0u);
}

TEST(ReconfigureTest, EveryApplyBumpsTheEpochOnce) {
  auto db = std::move(ShardedDB::Open(BaseOpts())).value();
  ASSERT_TRUE(db->ApplyTuning(BaseOpts()).ok());  // no-op knobs still count
  ASSERT_TRUE(db->ApplyTuning(BaseOpts()).ok());
  EXPECT_EQ(db->shard_tree(0).tuning_epoch(), 2u);
  EXPECT_EQ(db->TotalStats().reconfigurations, 2u);
}

TEST(ReconfigureTest, BufferShrinkFlushesInline) {
  auto db = std::move(ShardedDB::Open(BaseOpts())).value();
  for (Key k = 0; k < 100; ++k) db->Put(k, k + 1);  // buffer holds 100/128
  ASSERT_EQ(db->TotalStats().flushes, 0u);

  Options shrunk = BaseOpts();
  shrunk.buffer_entries = 64;  // below current fill: reseal at once
  ASSERT_TRUE(db->ApplyTuning(shrunk).ok());
  EXPECT_GT(db->TotalStats().flushes, 0u);
  EXPECT_EQ(db->shard_tree(0).memtable().capacity(), 64u);
  ExpectAllReadable(db.get(), 100);
}

TEST(ReconfigureTest, BufferShrinkSealsUnderBackgroundMaintenance) {
  // A bare tree with no scheduler attached, so nothing drains the seal
  // behind the test's back.
  Options base = BaseOpts();
  base.background_maintenance = true;
  Statistics stats;
  MemPageStore store(base.entries_per_page, &stats);
  LsmTree tree(base, &store, &stats);
  for (Key k = 0; k < 100; ++k) ASSERT_TRUE(tree.Put(k, k + 1).ok());

  Options shrunk = base;
  shrunk.buffer_entries = 64;
  ASSERT_TRUE(tree.Reconfigure(shrunk).ok());
  // Background mode never flushes inline: the over-full buffer is sealed
  // (still readable) and waits for maintenance.
  EXPECT_TRUE(tree.HasSealedMemtable());
  EXPECT_EQ(stats.flushes, 0u);
  ExpectAllReadable(&tree, 100);
}

TEST(ReconfigureTest, BufferGrowthKeepsEntriesAndRaisesThreshold) {
  auto db = std::move(ShardedDB::Open(BaseOpts())).value();
  for (Key k = 0; k < 100; ++k) db->Put(k, k + 1);

  Options grown = BaseOpts();
  grown.buffer_entries = 512;
  ASSERT_TRUE(db->ApplyTuning(grown).ok());
  EXPECT_EQ(db->TotalStats().flushes, 0u);  // nothing forced out
  EXPECT_EQ(db->shard_tree(0).memtable().size(), 100u);
  EXPECT_EQ(db->shard_tree(0).memtable().capacity(), 512u);
  ExpectAllReadable(db.get(), 100);
}

TEST(ReconfigureTest, NewBloomBudgetAppliesToNewRunsOnly) {
  auto db = std::move(ShardedDB::Open(BaseOpts())).value();
  Fill(db.get(), 2000);

  Options fat = BaseOpts();
  fat.filter_bits_per_entry = 16.0;
  ASSERT_TRUE(db->ApplyTuning(fat).ok());

  // Only the filter budget moved: the structure already conforms, so the
  // resident runs (old epoch, old filters) are untouched.
  MigrationProgress p = db->Progress();
  EXPECT_TRUE(p.structure_conforming());
  EXPECT_EQ(p.epoch, 1u);
  EXPECT_EQ(p.entries_current, 0u);
  EXPECT_GT(p.entries_total, 0u);

  // A fresh flush lands a current-epoch run with the fatter filter.
  const std::vector<LevelInfo> before = db->shard_tree(0).GetLevelInfos();
  for (Key k = 10000; k < 10000 + 200; ++k) db->Put(k, k + 1);
  db->Flush();
  p = db->Progress();
  EXPECT_GT(p.entries_current, 0u);
  bool found_current = false;
  for (const LevelInfo& info : db->shard_tree(0).GetLevelInfos()) {
    if (info.current_epoch_runs == 0) continue;
    found_current = true;
    // Leveling keeps one run per level, so this level's filter is the
    // newly built one: the 16-bit budget dominates the old 6-bit one at
    // every level under Monkey's allocation.
    const size_t idx = static_cast<size_t>(info.level) - 1;
    if (idx < before.size() && before[idx].num_runs > 0) {
      EXPECT_GT(info.filter_bits_per_entry,
                before[idx].filter_bits_per_entry)
          << "level " << info.level;
    }
  }
  EXPECT_TRUE(found_current);
}

/// Shard counts a foreground ApplyTuning converges inline on: one (the
/// experiments' engine) and three.
class ReconfigureShardsTest : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(ShardCounts, ReconfigureShardsTest,
                         ::testing::Values(1, 3));

TEST_P(ReconfigureShardsTest, TieringToLevelingReshapesEveryLevel) {
  Options tiering = BaseOpts();
  tiering.policy = CompactionPolicy::kTiering;
  tiering.num_shards = GetParam();
  auto db = std::move(ShardedDB::Open(tiering)).value();
  Fill(db.get(), 4000);

  // Tiering left multi-run levels behind.
  uint64_t multi_run_levels = 0;
  for (size_t s = 0; s < db->num_shards(); ++s) {
    for (const LevelInfo& info : db->shard_tree(s).GetLevelInfos()) {
      if (info.num_runs > 1) ++multi_run_levels;
    }
  }
  ASSERT_GT(multi_run_levels, 0u);

  Options leveling = BaseOpts();
  leveling.num_shards = GetParam();
  // No maintenance pool: the migration converges before this returns.
  ASSERT_TRUE(db->ApplyTuning(leveling).ok());

  EXPECT_TRUE(db->Progress().structure_conforming());
  EXPECT_GT(db->TotalStats().migration_steps, 0u);
  for (size_t s = 0; s < db->num_shards(); ++s) {
    for (const LevelInfo& info : db->shard_tree(s).GetLevelInfos()) {
      EXPECT_LE(info.num_runs, 1u) << "level " << info.level;
      if (info.num_runs == 1) {
        EXPECT_LE(info.num_entries, info.capacity) << "level " << info.level;
      }
    }
  }
  ExpectAllReadable(db.get(), 4000);
}

TEST(ReconfigureTest, LevelingToTieringConformsWithoutWork) {
  auto db = std::move(ShardedDB::Open(BaseOpts())).value();
  Fill(db.get(), 4000);

  Options tiering = BaseOpts();
  tiering.policy = CompactionPolicy::kTiering;
  ASSERT_TRUE(db->ApplyTuning(tiering).ok());
  // One run per level already satisfies tiering: no migration I/O at all.
  EXPECT_EQ(db->TotalStats().migration_steps, 0u);
  EXPECT_TRUE(db->Progress().structure_conforming());

  // From here on runs accumulate per level instead of merging eagerly.
  const uint64_t compactions_before = db->TotalStats().compactions;
  for (Key k = 10000; k < 10000 + 2 * 128; ++k) db->Put(k, k + 1);
  db->Flush();
  EXPECT_EQ(db->TotalStats().compactions, compactions_before);
  ExpectAllReadable(db.get(), 4000);
}

TEST(ReconfigureTest, SizeRatioShrinkCascadesDataDeeper) {
  Options wide = BaseOpts();
  wide.size_ratio = 10;
  auto db = std::move(ShardedDB::Open(wide)).value();
  Fill(db.get(), 6000);
  const int depth_before = db->shard_tree(0).DeepestLevel();

  Options narrow = BaseOpts();
  narrow.size_ratio = 2;  // every level capacity shrinks drastically
  ASSERT_TRUE(db->ApplyTuning(narrow).ok());

  EXPECT_TRUE(db->Progress().structure_conforming());
  EXPECT_GE(db->shard_tree(0).DeepestLevel(), depth_before);
  for (const LevelInfo& info : db->shard_tree(0).GetLevelInfos()) {
    if (info.num_runs == 1) {
      EXPECT_LE(info.num_entries, info.capacity) << "level " << info.level;
    }
  }
  ExpectAllReadable(db.get(), 6000);
}

TEST(ReconfigureTest, ShardedApplyMigratesOnMaintenancePool) {
  Options base = BaseOpts();
  base.num_shards = 4;
  base.background_maintenance = true;
  base.policy = CompactionPolicy::kTiering;
  auto db = std::move(ShardedDB::Open(base)).value();
  for (Key k = 0; k < 8000; ++k) db->Put(k, k + 1);
  db->WaitForMaintenance();
  db->Flush();

  Options leveling = base;
  leveling.policy = CompactionPolicy::kLeveling;
  leveling.size_ratio = 3;
  ASSERT_TRUE(db->ApplyTuning(leveling).ok());
  EXPECT_EQ(db->options().policy, CompactionPolicy::kLeveling);

  // The apply returns immediately; the pool converges the migration.
  db->WaitForMaintenance();
  const MigrationProgress p = db->Progress();
  EXPECT_TRUE(p.structure_conforming());
  EXPECT_EQ(p.epoch, 1u);
  for (size_t s = 0; s < db->num_shards(); ++s) {
    for (const LevelInfo& info : db->shard_tree(s).GetLevelInfos()) {
      EXPECT_LE(info.num_runs, 1u)
          << "shard " << s << " level " << info.level;
    }
  }
  ExpectAllReadable(db.get(), 8000);
  EXPECT_EQ(db->TotalStats().reconfigurations, db->num_shards());
}

}  // namespace
}  // namespace endure::lsm
