#include "bridge/tuned_db.h"

#include <gtest/gtest.h>

namespace endure::bridge {
namespace {

TEST(TunedDbTest, SizeRatioRoundsUp) {
  SystemConfig cfg;
  lsm::Options o = MakeOptions(cfg, Tuning(Policy::kLeveling, 11.2, 2.0),
                               10000);
  EXPECT_EQ(o.size_ratio, 12);
  o = MakeOptions(cfg, Tuning(Policy::kLeveling, 11.0, 2.0), 10000);
  EXPECT_EQ(o.size_ratio, 11);
}

TEST(TunedDbTest, PolicyMapped) {
  SystemConfig cfg;
  EXPECT_EQ(MakeOptions(cfg, Tuning(Policy::kTiering, 5, 2), 1000).policy,
            lsm::CompactionPolicy::kTiering);
  EXPECT_EQ(MakeOptions(cfg, Tuning(Policy::kLeveling, 5, 2), 1000).policy,
            lsm::CompactionPolicy::kLeveling);
}

TEST(TunedDbTest, BufferPreservesPerEntrySplit) {
  SystemConfig cfg;  // H = 10 bits/entry, E = 8192 bits
  const uint64_t n = 100000;
  lsm::Options o = MakeOptions(cfg, Tuning(Policy::kLeveling, 10.0, 4.0), n);
  // m_buf = (10 - 4) * n bits -> entries = 6n / 8192.
  EXPECT_EQ(o.buffer_entries, static_cast<uint64_t>(6.0 * n / 8192.0));
  EXPECT_DOUBLE_EQ(o.filter_bits_per_entry, 4.0);
}

TEST(TunedDbTest, LevelCountInvariantAcrossScale) {
  // Fig. 16: with memory proportional to N, the level count is the same at
  // every database size.
  SystemConfig cfg;
  const Tuning t(Policy::kLeveling, 12.0, 2.4);
  CostModel paper_model(cfg);
  for (uint64_t n : {uint64_t{20000}, uint64_t{200000}, uint64_t{2000000}}) {
    CostModel scaled_model(ScaledConfig(cfg, n));
    EXPECT_EQ(scaled_model.Levels(t), paper_model.Levels(t)) << n;
  }
}

class TunedDbShardsTest : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(ShardCounts, TunedDbShardsTest,
                         ::testing::Values(1, 4));

TEST_P(TunedDbShardsTest, OpenTunedShardedDbLoadsEvenKeys) {
  SystemConfig cfg;
  auto db = OpenTunedShardedDb(cfg, Tuning(Policy::kLeveling, 6.0, 5.0), 5000,
                               GetParam(), /*background_maintenance=*/false);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->TotalEntries(), 5000u);
  EXPECT_TRUE((*db)->Get(2 * 4999).has_value());
  EXPECT_FALSE((*db)->Get(2 * 4999 + 1).has_value());
}

TEST(TunedDbTest, MinimumBufferFloor) {
  SystemConfig cfg;
  // h close to H: the buffer floor (16 entries) kicks in.
  lsm::Options o = MakeOptions(cfg, Tuning(Policy::kLeveling, 5.0, 9.9),
                               1000);
  EXPECT_GE(o.buffer_entries, 16u);
}

}  // namespace
}  // namespace endure::bridge
