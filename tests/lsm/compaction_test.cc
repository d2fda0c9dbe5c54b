#include "lsm/compaction.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "lsm/run_builder.h"
#include "util/random.h"

namespace endure::lsm {
namespace {

class CompactionTest : public ::testing::Test {
 protected:
  CompactionTest() : store_(4, &stats_) {}

  std::shared_ptr<endure::lsm::Run> RunOf(std::vector<Entry> entries) {
    return BuildRun(&store_, entries, 8.0, IoContext::kFlush).value();
  }

  Entry Val(Key k, SeqNum s, Value v) {
    return Entry{k, s, v, EntryType::kValue};
  }
  Entry Tomb(Key k, SeqNum s) {
    return Entry{k, s, 0, EntryType::kTombstone};
  }

  Statistics stats_;
  MemPageStore store_;
};

TEST_F(CompactionTest, MergesDisjointRuns) {
  auto a = RunOf({Val(1, 2, 10), Val(3, 2, 30)});
  auto b = RunOf({Val(2, 1, 20), Val(4, 1, 40)});
  auto merged = MergeRuns(&store_, {a, b}, 8.0, false).value();
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->num_entries(), 4u);
  EXPECT_EQ(merged->min_key(), 1u);
  EXPECT_EQ(merged->max_key(), 4u);
}

TEST_F(CompactionTest, NewestInputWinsConflicts) {
  auto newer = RunOf({Val(5, 10, 500)});
  auto older = RunOf({Val(5, 1, 100), Val(6, 1, 600)});
  auto merged = MergeRuns(&store_, {newer, older}, 8.0, false).value();
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->num_entries(), 2u);
  const Entry* e = merged->Get(5, true);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->value, 500u);
}

TEST_F(CompactionTest, DropTombstonesAtBottom) {
  auto newer = RunOf({Tomb(1, 10), Val(2, 10, 20)});
  auto older = RunOf({Val(1, 1, 10), Val(3, 1, 30)});
  auto merged = MergeRuns(&store_, {newer, older}, 8.0,
                          /*drop_tombstones=*/true).value();
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->num_entries(), 2u);  // keys 2, 3; key 1 annihilated
  EXPECT_EQ(merged->Get(1, true), nullptr);
}

TEST_F(CompactionTest, KeepTombstonesAboveBottom) {
  auto newer = RunOf({Tomb(1, 10)});
  auto older = RunOf({Val(1, 1, 10)});
  auto merged = MergeRuns(&store_, {newer, older}, 8.0,
                          /*drop_tombstones=*/false).value();
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->num_entries(), 1u);
  const Entry* e = merged->Get(1, true);
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->is_tombstone());
}

TEST_F(CompactionTest, AllTombstoneMergeReturnsNull) {
  auto a = RunOf({Tomb(1, 2), Tomb(2, 2)});
  auto merged = MergeRuns(&store_, {a}, 8.0, /*drop_tombstones=*/true).value();
  EXPECT_EQ(merged, nullptr);
}

TEST_F(CompactionTest, CompactionIoAccounted) {
  auto a = RunOf({Val(1, 2, 1), Val(2, 2, 2), Val(3, 2, 3), Val(4, 2, 4),
                  Val(5, 2, 5)});  // 2 pages
  auto b = RunOf({Val(6, 1, 6), Val(7, 1, 7)});  // 1 page
  const uint64_t read_before = stats_.compaction_pages_read;
  const uint64_t write_before = stats_.compaction_pages_written;
  auto merged = MergeRuns(&store_, {a, b}, 8.0, false).value();
  EXPECT_EQ(stats_.compaction_pages_read - read_before, 3u);
  EXPECT_EQ(stats_.compaction_pages_written - write_before, 2u);  // 7 keys
  EXPECT_EQ(merged->num_entries(), 7u);
}

TEST_F(CompactionTest, ManyRunsMerge) {
  std::vector<std::shared_ptr<endure::lsm::Run>> runs;
  for (int r = 0; r < 8; ++r) {
    std::vector<Entry> entries;
    for (int i = 0; i < 10; ++i) {
      entries.push_back(Val(static_cast<Key>(i * 8 + r),
                            static_cast<SeqNum>(100 - r),
                            static_cast<Value>(r)));
    }
    runs.push_back(RunOf(entries));
  }
  auto merged = MergeRuns(&store_, runs, 8.0, false).value();
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->num_entries(), 80u);
}

TEST_F(CompactionTest, MergeOfHundredsOfPagesReadsEachInputPageOnce) {
  // Three overlapping runs of 1,750 pages in all, with updates and
  // tombstones, merge in one stream: every input page is read once (a
  // merge cut into key ranges would re-read the pages that straddle each
  // cut), and the output is the newest version of each key with the
  // tombstones dropped.
  Rng rng(7);
  std::vector<Entry> a, b, c;
  for (Key k = 0; k < 3000; ++k) a.push_back(Val(3 * k, 5, k));
  for (Key k = 0; k < 2000; ++k) {
    if (rng.NextDouble() < 0.1) {
      b.push_back(Tomb(4 * k, 3));
    } else {
      b.push_back(Val(4 * k, 3, 4 * k + 1));
    }
  }
  for (Key k = 500; k < 2500; ++k) c.push_back(Val(k, 1, 9));
  std::map<Key, Entry> newest;
  for (const std::vector<Entry>* run : {&a, &b, &c}) {
    for (const Entry& e : *run) newest.emplace(e.key, e);
  }
  std::erase_if(newest, [](const auto& kv) {
    return kv.second.is_tombstone();
  });
  auto ra = RunOf(a), rb = RunOf(b), rc = RunOf(c);
  const uint64_t input_pages = (3000 + 2000 + 2000) / 4;

  const Statistics before = stats_;
  auto merged = MergeRuns(&store_, {ra, rb, rc}, 8.0,
                          /*drop_tombstones=*/true).value();
  const Statistics d = stats_.Delta(before);
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(d.compaction_pages_read.load(), input_pages);
  EXPECT_EQ(d.compaction_pages_written.load(), (newest.size() + 3) / 4);

  ASSERT_EQ(merged->num_entries(), newest.size());
  auto it = merged->NewIterator(IoContext::kRangeQuery);
  for (const auto& [key, want] : newest) {
    ASSERT_TRUE(it.Valid());
    EXPECT_EQ(it.entry().key, key);
    EXPECT_EQ(it.entry().seq, want.seq);
    EXPECT_EQ(it.entry().value, want.value);
    EXPECT_FALSE(it.entry().is_tombstone());
    it.Next();
  }
  EXPECT_FALSE(it.Valid());
}

}  // namespace
}  // namespace endure::lsm
