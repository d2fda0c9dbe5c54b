// Integration: long randomized engine soak against a reference std::map,
// across policies, size ratios and storage backends — the engine's
// correctness backbone.

#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "lsm/sharded_db.h"
#include "util/random.h"

namespace endure::lsm {
namespace {

struct SoakCase {
  CompactionPolicy policy;
  int size_ratio;
  uint64_t buffer;
  StorageBackend backend;
};

class EngineSoakTest : public ::testing::TestWithParam<SoakCase> {};

TEST_P(EngineSoakTest, RandomOpsMatchReference) {
  const SoakCase& c = GetParam();
  Options o;
  o.policy = c.policy;
  o.size_ratio = c.size_ratio;
  o.buffer_entries = c.buffer;
  o.entries_per_page = 4;
  o.filter_bits_per_entry = 6.0;
  o.backend = c.backend;
  o.storage_dir = "/tmp/endure_soak";
  auto db_or = ShardedDB::Open(o);
  ASSERT_TRUE(db_or.ok());
  ShardedDB* db = db_or->get();

  std::map<Key, Value> ref;
  Rng rng(1000 + c.size_ratio +
          static_cast<int>(c.policy) * 7 + static_cast<int>(c.backend));
  const int ops = c.backend == StorageBackend::kFile ? 1500 : 4000;
  for (int i = 0; i < ops; ++i) {
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
        EXPECT_FALSE(got.has_value()) << "op " << i << " key " << k;
      } else {
        ASSERT_TRUE(got.has_value()) << "op " << i << " key " << k;
        EXPECT_EQ(*got, it->second) << "op " << i << " key " << k;
      }
    } else {
      const Key hi = k + rng.UniformInt(1, 30);
      const auto got = db->Scan(k, hi).value();
      std::vector<std::pair<Key, Value>> expect;
      for (auto it = ref.lower_bound(k); it != ref.end() && it->first < hi;
           ++it) {
        expect.push_back(*it);
      }
      ASSERT_EQ(got.size(), expect.size()) << "op " << i;
      for (size_t j = 0; j < got.size(); ++j) {
        EXPECT_EQ(got[j].key, expect[j].first);
        EXPECT_EQ(got[j].value, expect[j].second);
      }
    }
  }

  // Final exhaustive verification.
  for (Key k = 0; k <= 300; ++k) {
    const auto got = db->Get(k);
    const auto it = ref.find(k);
    if (it == ref.end()) {
      EXPECT_FALSE(got.has_value()) << "final key " << k;
    } else {
      ASSERT_TRUE(got.has_value()) << "final key " << k;
      EXPECT_EQ(*got, it->second);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndBackends, EngineSoakTest,
    ::testing::Values(
        SoakCase{CompactionPolicy::kLeveling, 2, 8, StorageBackend::kMemory},
        SoakCase{CompactionPolicy::kLeveling, 4, 16,
                 StorageBackend::kMemory},
        SoakCase{CompactionPolicy::kLeveling, 10, 4,
                 StorageBackend::kMemory},
        SoakCase{CompactionPolicy::kTiering, 2, 8, StorageBackend::kMemory},
        SoakCase{CompactionPolicy::kTiering, 4, 16, StorageBackend::kMemory},
        SoakCase{CompactionPolicy::kTiering, 8, 4, StorageBackend::kMemory},
        SoakCase{CompactionPolicy::kLeveling, 3, 8, StorageBackend::kFile},
        SoakCase{CompactionPolicy::kTiering, 3, 8, StorageBackend::kFile}));

TEST(EngineInvariantTest, BulkLoadThenSoakKeepsStructure) {
  Options o;
  o.policy = CompactionPolicy::kLeveling;
  o.size_ratio = 4;
  o.buffer_entries = 32;
  o.entries_per_page = 4;
  auto db_or = ShardedDB::Open(o);
  ASSERT_TRUE(db_or.ok());
  ShardedDB* db = db_or->get();
  std::vector<std::pair<Key, Value>> pairs;
  for (Key k = 0; k < 2000; ++k) pairs.emplace_back(2 * k, k);
  ASSERT_TRUE(db->BulkLoad(pairs).ok());

  Rng rng(77);
  for (int i = 0; i < 3000; ++i) {
    db->Put(rng.UniformInt(0, 10000) * 2, i);
  }
  // Leveling invariant after churn: at most one run per level.
  for (const LevelInfo& info : db->shard_tree(0).GetLevelInfos()) {
    EXPECT_LE(info.num_runs, 1u) << "level " << info.level;
  }
  // All originally loaded keys still readable (possibly updated).
  for (Key k = 0; k < 2000; k += 97) {
    EXPECT_TRUE(db->Get(2 * k).has_value()) << k;
  }
}

}  // namespace
}  // namespace endure::lsm
