#include "lsm/memtable.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>

#include "util/random.h"

namespace endure::lsm {
namespace {

Entry Val(Key k, SeqNum s, Value v) {
  return Entry{k, s, v, EntryType::kValue};
}

TEST(SkipListTest, InsertAndFind) {
  SkipList list;
  EXPECT_TRUE(list.Upsert(Val(5, 1, 50)));
  EXPECT_TRUE(list.Upsert(Val(3, 2, 30)));
  EXPECT_TRUE(list.Upsert(Val(9, 3, 90)));
  EXPECT_EQ(list.size(), 3u);
  ASSERT_NE(list.Find(5), nullptr);
  EXPECT_EQ(list.Find(5)->value, 50u);
  EXPECT_EQ(list.Find(4), nullptr);
}

TEST(SkipListTest, UpsertReplacesExistingKey) {
  SkipList list;
  EXPECT_TRUE(list.Upsert(Val(7, 1, 70)));
  EXPECT_FALSE(list.Upsert(Val(7, 2, 71)));
  EXPECT_EQ(list.size(), 1u);
  EXPECT_EQ(list.Find(7)->value, 71u);
  EXPECT_EQ(list.Find(7)->seq, 2u);
}

TEST(SkipListTest, DumpIsSorted) {
  SkipList list;
  Rng rng(1);
  for (int i = 0; i < 500; ++i) list.Upsert(Val(rng.Next() % 10000, i, i));
  const std::vector<Entry> dump = list.Dump();
  for (size_t i = 1; i < dump.size(); ++i) {
    EXPECT_LT(dump[i - 1].key, dump[i].key);
  }
  EXPECT_EQ(dump.size(), list.size());
}

TEST(SkipListTest, MatchesReferenceMap) {
  SkipList list;
  std::map<Key, Value> ref;
  Rng rng(2);
  for (int i = 0; i < 2000; ++i) {
    const Key k = rng.Next() % 500;
    const Value v = rng.Next();
    list.Upsert(Val(k, i, v));
    ref[k] = v;
  }
  EXPECT_EQ(list.size(), ref.size());
  for (const auto& [k, v] : ref) {
    ASSERT_NE(list.Find(k), nullptr) << k;
    EXPECT_EQ(list.Find(k)->value, v) << k;
  }
}

TEST(SkipListTest, IteratorTraversesAscending) {
  SkipList list;
  for (Key k : {40, 10, 30, 20}) list.Upsert(Val(k, 1, k));
  SkipList::Iterator it = list.NewIterator();
  std::vector<Key> keys;
  for (; it.Valid(); it.Next()) keys.push_back(it.entry().key);
  EXPECT_EQ(keys, (std::vector<Key>{10, 20, 30, 40}));
}

TEST(SkipListTest, IteratorSeek) {
  SkipList list;
  for (Key k : {10, 20, 30}) list.Upsert(Val(k, 1, k));
  SkipList::Iterator it = list.NewIterator();
  it.Seek(15);
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.entry().key, 20u);
  it.Seek(30);
  EXPECT_EQ(it.entry().key, 30u);
  it.Seek(31);
  EXPECT_FALSE(it.Valid());
  it.SeekToFirst();
  EXPECT_EQ(it.entry().key, 10u);
}

TEST(SkipListTest, ClearEmptiesList) {
  SkipList list;
  for (Key k = 0; k < 100; ++k) list.Upsert(Val(k, 1, k));
  list.Clear();
  EXPECT_EQ(list.size(), 0u);
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.Find(5), nullptr);
  // Reusable after Clear.
  list.Upsert(Val(1, 1, 1));
  EXPECT_EQ(list.size(), 1u);
}

TEST(SkipListTest, TombstonesStored) {
  SkipList list;
  list.Upsert(Entry{5, 1, 0, EntryType::kTombstone});
  ASSERT_NE(list.Find(5), nullptr);
  EXPECT_TRUE(list.Find(5)->is_tombstone());
}

TEST(SkipListTest, ConcurrentReadersFindEveryPublishedKey) {
  // One writer inserts keys in descending order, so every insert links a
  // new node right behind the head, in front of the newest key; after
  // each insert it publishes how many keys are in (release). Two readers
  // spin on that watermark (acquire) and probe the newest published key —
  // the one whose level-0 predecessor the writer is relinking — plus an
  // older one. Every published key must be found, and Seek must never
  // land below its target.
  constexpr Key kKeys = 200000;
  SkipList list;
  std::atomic<uint64_t> published{0};
  std::atomic<int> ready{0};
  std::atomic<uint64_t> misses{0};
  std::atomic<uint64_t> checks{0};

  auto reader = [&](uint64_t seed) {
    Rng rng(seed);
    ready.fetch_add(1);
    uint64_t local_misses = 0;
    uint64_t local_checks = 0;
    uint64_t seen;
    do {
      seen = published.load(std::memory_order_acquire);
      if (seen == 0) continue;
      const Key newest = kKeys - (seen - 1);
      const Key older = newest + rng.Next() % seen;
      for (const Key k : {newest, older}) {
        const Entry* e = list.Find(k);
        local_misses += e == nullptr || e->key != k || e->value != 10 * k;
      }
      SkipList::Iterator it = list.NewIterator();
      it.Seek(newest);
      local_misses += !it.Valid() || it.entry().key != newest;
      local_checks += 3;
    } while (seen < kKeys);
    misses.fetch_add(local_misses);
    checks.fetch_add(local_checks);
  };

  std::thread r1(reader, 11);
  std::thread r2(reader, 12);
  while (ready.load() < 2) std::this_thread::yield();
  for (uint64_t i = 0; i < kKeys; ++i) {
    const Key k = kKeys - i;
    list.Upsert(Val(k, i + 1, 10 * k));
    published.store(i + 1, std::memory_order_release);
  }
  r1.join();
  r2.join();
  EXPECT_EQ(misses.load(), 0u)
      << "published keys missed in " << checks.load() << " checks";
  EXPECT_GT(checks.load(), 0u);
}

TEST(MemTableTest, CapacityTracking) {
  MemTable mt(4);
  EXPECT_FALSE(mt.IsFull());
  for (Key k = 0; k < 4; ++k) mt.Upsert(Val(k, k, k));
  EXPECT_TRUE(mt.IsFull());
  EXPECT_EQ(mt.size(), 4u);
}

TEST(MemTableTest, UpsertExistingKeyDoesNotGrow) {
  MemTable mt(2);
  mt.Upsert(Val(1, 1, 10));
  mt.Upsert(Val(1, 2, 11));
  EXPECT_EQ(mt.size(), 1u);
  EXPECT_FALSE(mt.IsFull());
}

TEST(MemTableTest, DumpAndClear) {
  MemTable mt(10);
  for (Key k : {5, 3, 8}) mt.Upsert(Val(k, 1, k));
  const std::vector<Entry> d = mt.Dump();
  ASSERT_EQ(d.size(), 3u);
  EXPECT_EQ(d[0].key, 3u);
  EXPECT_EQ(d[2].key, 8u);
  mt.Clear();
  EXPECT_TRUE(mt.empty());
}

TEST(MemTableTest, MinimumCapacityIsOne) {
  MemTable mt(0);
  EXPECT_EQ(mt.capacity(), 1u);
}

}  // namespace
}  // namespace endure::lsm
