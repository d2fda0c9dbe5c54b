#include "lsm/merge_iterator.h"

#include <gtest/gtest.h>

namespace endure::lsm {
namespace {

Entry Val(Key k, SeqNum s, Value v) {
  return Entry{k, s, v, EntryType::kValue};
}
Entry Tomb(Key k, SeqNum s) { return Entry{k, s, 0, EntryType::kTombstone}; }

/// Test scaffolding: a stream over an in-memory vector of entries.
class VectorStream final : public EntryStream {
 public:
  explicit VectorStream(std::vector<Entry> entries)
      : entries_(std::move(entries)) {}
  bool Valid() const override { return pos_ < entries_.size(); }
  const Entry& entry() const override { return entries_[pos_]; }
  void Next() override { ++pos_; }

 private:
  std::vector<Entry> entries_;
  size_t pos_ = 0;
};

TEST(VectorStreamTest, IteratesInOrder) {
  VectorStream s({Val(1, 1, 10), Val(2, 1, 20)});
  ASSERT_TRUE(s.Valid());
  EXPECT_EQ(s.entry().key, 1u);
  s.Next();
  EXPECT_EQ(s.entry().key, 2u);
  s.Next();
  EXPECT_FALSE(s.Valid());
}

TEST(MergeIteratorTest, MergesDisjointStreams) {
  VectorStream a({Val(1, 9, 1), Val(3, 9, 3)});
  VectorStream b({Val(2, 1, 2), Val(4, 1, 4)});
  MergeIterator m({&a, &b});
  std::vector<Key> keys;
  for (; m.Valid(); m.Next()) keys.push_back(m.entry().key);
  EXPECT_EQ(keys, (std::vector<Key>{1, 2, 3, 4}));
}

TEST(MergeIteratorTest, NewestSourceWinsOnDuplicateKey) {
  VectorStream newer({Val(5, 100, 555)});  // rank 0: newest
  VectorStream older({Val(5, 50, 111)});   // rank 1: older
  MergeIterator m({&newer, &older});
  ASSERT_TRUE(m.Valid());
  EXPECT_EQ(m.entry().value, 555u);
  m.Next();
  EXPECT_FALSE(m.Valid());  // duplicate consumed
}

TEST(MergeIteratorTest, ThreeWayDuplicates) {
  VectorStream a({Val(1, 30, 13), Val(2, 31, 23)});
  VectorStream b({Val(1, 20, 12)});
  VectorStream c({Val(1, 10, 11), Val(3, 11, 31)});
  MergeIterator m({&a, &b, &c});
  std::vector<std::pair<Key, Value>> got;
  for (; m.Valid(); m.Next()) got.push_back({m.entry().key, m.entry().value});
  EXPECT_EQ(got, (std::vector<std::pair<Key, Value>>{{1, 13}, {2, 23},
                                                     {3, 31}}));
}

TEST(MergeIteratorTest, TombstonesEmittedByDefault) {
  VectorStream newer({Tomb(7, 2)});
  VectorStream older({Val(7, 1, 70)});
  MergeIterator m({&newer, &older});
  ASSERT_TRUE(m.Valid());
  EXPECT_TRUE(m.entry().is_tombstone());
}

TEST(MergeIteratorTest, EmptyInputs) {
  VectorStream a({});
  VectorStream b({});
  MergeIterator m({&a, &b});
  EXPECT_FALSE(m.Valid());
}

TEST(MergeIteratorTest, NoInputs) {
  MergeIterator m(std::vector<EntryStream*>{});
  EXPECT_FALSE(m.Valid());
}

TEST(MergeIteratorTest, NonOwningStreamsMergeIdentically) {
  VectorStream a({Val(1, 9, 1), Val(3, 9, 3)});
  VectorStream b({Val(2, 1, 2), Val(3, 1, 33)});
  MergeIterator m({&a, &b});
  std::vector<std::pair<Key, Value>> got;
  for (; m.Valid(); m.Next()) got.push_back({m.entry().key, m.entry().value});
  EXPECT_EQ(got, (std::vector<std::pair<Key, Value>>{{1, 1}, {2, 2},
                                                     {3, 3}}));
}

TEST(MergeIteratorTest, TombstoneShadowedByNewerValue) {
  VectorStream newer({Val(9, 10, 99)});  // newer put
  VectorStream older({Tomb(9, 5)});      // older delete
  MergeIterator m({&newer, &older});
  ASSERT_TRUE(m.Valid());
  EXPECT_FALSE(m.entry().is_tombstone());
  EXPECT_EQ(m.entry().value, 99u);
  m.Next();
  EXPECT_FALSE(m.Valid());
}

}  // namespace
}  // namespace endure::lsm
