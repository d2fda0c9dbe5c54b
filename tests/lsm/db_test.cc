// Basic key-value API of the engine facade in the configuration the
// experiments run: one shard, foreground (inline) maintenance.

#include <gtest/gtest.h>

#include "lsm/sharded_db.h"

namespace endure::lsm {
namespace {

Options TestOptions() {
  Options o;
  o.size_ratio = 3;
  o.buffer_entries = 16;
  o.entries_per_page = 4;
  o.filter_bits_per_entry = 8.0;
  return o;
}

TEST(DbTest, OpenRejectsInvalidOptions) {
  Options o = TestOptions();
  o.size_ratio = 1;
  auto db = ShardedDB::Open(o);
  EXPECT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kInvalidArgument);
}

TEST(DbTest, BasicCrud) {
  auto db = ShardedDB::Open(TestOptions());
  ASSERT_TRUE(db.ok());
  (*db)->Put(1, 10);
  (*db)->Put(2, 20);
  EXPECT_EQ((*db)->Get(1).value(), 10u);
  (*db)->Delete(1);
  EXPECT_FALSE((*db)->Get(1).has_value());
  EXPECT_EQ((*db)->Scan(0, 100).value().size(), 1u);
}

TEST(DbTest, BulkLoadThenRead) {
  auto db = ShardedDB::Open(TestOptions());
  ASSERT_TRUE(db.ok());
  std::vector<std::pair<Key, Value>> pairs;
  for (Key k = 0; k < 300; ++k) pairs.emplace_back(2 * k, k);
  ASSERT_TRUE((*db)->BulkLoad(pairs).ok());
  EXPECT_EQ((*db)->Get(100).value(), 50u);
  EXPECT_FALSE((*db)->Get(101).has_value());
}

TEST(DbTest, BulkLoadRejectsUnsortedInput) {
  auto db = ShardedDB::Open(TestOptions());
  ASSERT_TRUE(db.ok());
  const Status s = (*db)->BulkLoad({{4, 1}, {2, 2}});
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(DbTest, BulkLoadRejectsDuplicateKeys) {
  auto db = ShardedDB::Open(TestOptions());
  ASSERT_TRUE(db.ok());
  const Status s = (*db)->BulkLoad({{2, 1}, {2, 2}});
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(DbTest, BulkLoadRequiresEmptyDb) {
  auto db = ShardedDB::Open(TestOptions());
  ASSERT_TRUE(db.ok());
  (*db)->Put(1, 1);
  const Status s = (*db)->BulkLoad({{2, 2}});
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST(DbTest, StatsAccumulate) {
  auto db = ShardedDB::Open(TestOptions());
  ASSERT_TRUE(db.ok());
  for (Key k = 0; k < 100; ++k) (*db)->Put(k, k);
  (*db)->Get(5);
  EXPECT_EQ((*db)->TotalStats().writes, 100u);
  EXPECT_EQ((*db)->TotalStats().gets, 1u);
  EXPECT_GT((*db)->TotalStats().flushes, 0u);
}

TEST(DbTest, FileBackendEndToEnd) {
  Options o = TestOptions();
  o.backend = StorageBackend::kFile;
  o.storage_dir = "/tmp/endure_db_test";
  auto db = ShardedDB::Open(o);
  ASSERT_TRUE(db.ok());
  for (Key k = 0; k < 200; ++k) (*db)->Put(k * 2, k);
  for (Key k = 0; k < 200; ++k) {
    ASSERT_TRUE((*db)->Get(k * 2).has_value()) << k;
    EXPECT_EQ((*db)->Get(k * 2).value(), k);
  }
  const auto scan = (*db)->Scan(10, 30).value();
  EXPECT_EQ(scan.size(), 10u);
}

TEST(DbTest, FlushExposed) {
  auto db = ShardedDB::Open(TestOptions());
  ASSERT_TRUE(db.ok());
  (*db)->Put(1, 1);
  (*db)->Flush();
  EXPECT_TRUE((*db)->shard_tree(0).memtable().empty());
  EXPECT_EQ((*db)->Get(1).value(), 1u);
}

}  // namespace
}  // namespace endure::lsm
