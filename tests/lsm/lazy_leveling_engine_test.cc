// Lazy-leveling compaction in the engine: the bottom level keeps a single
// eagerly-merged run while every level above tiers, and correctness holds
// under the same randomized soak as the classic policies.

#include <gtest/gtest.h>

#include <map>

#include "lsm/sharded_db.h"
#include "util/random.h"

namespace endure::lsm {
namespace {

Options LazyOptions(int T = 4, uint64_t buffer = 8) {
  Options o;
  o.policy = CompactionPolicy::kLazyLeveling;
  o.size_ratio = T;
  o.buffer_entries = buffer;
  o.entries_per_page = 4;
  o.filter_bits_per_entry = 8.0;
  return o;
}

TEST(LazyLevelingEngineTest, BottomLevelKeepsOneRun) {
  Statistics stats;
  MemPageStore store(4, &stats);
  LsmTree tree(LazyOptions(), &store, &stats);
  Rng rng(71);
  for (int i = 0; i < 4000; ++i) tree.Put(rng.UniformInt(0, 100000), i);
  const auto infos = tree.GetLevelInfos();
  const int deepest = tree.DeepestLevel();
  ASSERT_GE(deepest, 2);
  EXPECT_EQ(infos[deepest - 1].num_runs, 1u);
  // Upper levels may tier (strictly fewer than T runs).
  for (const LevelInfo& info : infos) {
    EXPECT_LT(info.num_runs, 4u) << "level " << info.level;
  }
}

TEST(LazyLevelingEngineTest, UpperLevelsActuallyTier) {
  Statistics stats;
  MemPageStore store(4, &stats);
  LsmTree tree(LazyOptions(5, 8), &store, &stats);
  Rng rng(72);
  // Enough churn that some shallow level holds >1 run at some point.
  bool saw_multi_run_upper = false;
  for (int i = 0; i < 6000; ++i) {
    tree.Put(rng.UniformInt(0, 1000000), i);
    const auto infos = tree.GetLevelInfos();
    const int deepest = tree.DeepestLevel();
    for (const LevelInfo& info : infos) {
      if (info.level < deepest && info.num_runs > 1) {
        saw_multi_run_upper = true;
      }
    }
  }
  EXPECT_TRUE(saw_multi_run_upper);
}

TEST(LazyLevelingEngineTest, WriteAmplificationBetweenClassicPolicies) {
  auto compaction_traffic = [](CompactionPolicy policy) {
    Options o;
    o.policy = policy;
    o.size_ratio = 4;
    o.buffer_entries = 8;
    o.entries_per_page = 4;
    Statistics stats;
    MemPageStore store(o.entries_per_page, &stats);
    LsmTree tree(o, &store, &stats);
    for (Key k = 0; k < 6000; ++k) tree.Put(k, k);
    return stats.compaction_pages_read + stats.compaction_pages_written +
           stats.flush_pages_written;
  };
  const uint64_t lvl = compaction_traffic(CompactionPolicy::kLeveling);
  const uint64_t lazy = compaction_traffic(CompactionPolicy::kLazyLeveling);
  const uint64_t tier = compaction_traffic(CompactionPolicy::kTiering);
  EXPECT_LE(tier, lazy);
  EXPECT_LE(lazy, lvl);
}

TEST(LazyLevelingEngineTest, RandomOpsMatchReference) {
  auto db_or = lsm::ShardedDB::Open(LazyOptions(3, 8));
  ASSERT_TRUE(db_or.ok());
  ShardedDB* db = db_or->get();
  std::map<Key, Value> ref;
  Rng rng(73);
  for (int i = 0; i < 4000; ++i) {
    const double dice = rng.NextDouble();
    const Key k = rng.UniformInt(0, 300);
    if (dice < 0.5) {
      const Value v = rng.Next() % 100000;
      db->Put(k, v);
      ref[k] = v;
    } else if (dice < 0.65) {
      db->Delete(k);
      ref.erase(k);
    } else if (dice < 0.85) {
      const auto got = db->Get(k);
      const auto it = ref.find(k);
      if (it == ref.end()) {
        EXPECT_FALSE(got.has_value()) << "key " << k;
      } else {
        ASSERT_TRUE(got.has_value()) << "key " << k;
        EXPECT_EQ(*got, it->second);
      }
    } else {
      const Key hi = k + rng.UniformInt(1, 30);
      const auto got = db->Scan(k, hi).value();
      std::vector<std::pair<Key, Value>> expect;
      for (auto it = ref.lower_bound(k); it != ref.end() && it->first < hi;
           ++it) {
        expect.push_back(*it);
      }
      ASSERT_EQ(got.size(), expect.size());
      for (size_t j = 0; j < got.size(); ++j) {
        EXPECT_EQ(got[j].key, expect[j].first);
        EXPECT_EQ(got[j].value, expect[j].second);
      }
    }
  }
}

TEST(LazyLevelingEngineTest, BulkLoadWorks) {
  auto db_or = lsm::ShardedDB::Open(LazyOptions(4, 16));
  ASSERT_TRUE(db_or.ok());
  std::vector<std::pair<Key, Value>> pairs;
  for (Key k = 0; k < 1000; ++k) pairs.emplace_back(2 * k, k);
  ASSERT_TRUE((*db_or)->BulkLoad(pairs).ok());
  EXPECT_EQ((*db_or)->Get(500).value(), 250u);
  EXPECT_FALSE((*db_or)->Get(501).has_value());
}

}  // namespace
}  // namespace endure::lsm
