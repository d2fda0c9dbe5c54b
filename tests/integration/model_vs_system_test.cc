// Integration: the analytical cost model's predictions must track the
// engine's measured I/O — the paper's core validation ("the empirical
// measurements confirm the cost model predictions", Section 8.3).

#include <gtest/gtest.h>

#include "bridge/experiment.h"
#include "bridge/tuned_db.h"

namespace endure::bridge {
namespace {

class ModelVsSystemTest : public ::testing::Test {
 protected:
  ModelVsSystemTest() {
    eopts_.actual_entries = 20000;
    eopts_.queries_per_workload = 500;
  }

  // Measures average empty-point-query page reads under `t`.
  double MeasureZ0(const Tuning& t) {
    auto db = OpenTunedShardedDb(cfg_, t, eopts_.actual_entries,
                                 /*num_shards=*/1,
                                 /*background_maintenance=*/false);
    workload::KeyUniverse universe(eopts_.actual_entries);
    Rng rng(7);
    const lsm::Statistics before = (*db)->TotalStats();
    const int n = 2000;
    for (int i = 0; i < n; ++i) (*db)->Get(universe.SampleMissing(&rng));
    const lsm::Statistics d = (*db)->TotalStats().Delta(before);
    return static_cast<double>(d.point_pages_read) / n;
  }

  // Measures average non-empty-point-query page reads under `t`.
  double MeasureZ1(const Tuning& t) {
    auto db = OpenTunedShardedDb(cfg_, t, eopts_.actual_entries,
                                 /*num_shards=*/1,
                                 /*background_maintenance=*/false);
    workload::KeyUniverse universe(eopts_.actual_entries);
    Rng rng(8);
    const lsm::Statistics before = (*db)->TotalStats();
    const int n = 2000;
    for (int i = 0; i < n; ++i) {
      EXPECT_TRUE((*db)->Get(universe.SampleExisting(&rng)).has_value());
    }
    const lsm::Statistics d = (*db)->TotalStats().Delta(before);
    return static_cast<double>(d.point_pages_read) / n;
  }

  CostModel ScaledModel() const {
    SystemConfig scaled = ScaledConfig(cfg_, eopts_.actual_entries);
    scaled.level_policy = LevelPolicy::kInteger;
    return CostModel(scaled);
  }

  SystemConfig cfg_;
  ExperimentOptions eopts_;
};

TEST_F(ModelVsSystemTest, EmptyPointQueryCostTracksModel) {
  // Deployment uses the integer-rounded tuning, so predict with it too.
  for (const Tuning t : {Tuning(Policy::kLeveling, 8.0, 6.0),
                         Tuning(Policy::kLeveling, 5.0, 2.0),
                         Tuning(Policy::kTiering, 4.0, 6.0)}) {
    const double measured = MeasureZ0(t);
    const double predicted = ScaledModel().EmptyPointQueryCost(t);
    // The model is an expectation over filter noise; allow generous slack
    // but demand the right magnitude.
    EXPECT_NEAR(measured, predicted, 0.35 + 0.5 * predicted)
        << t.ToString();
  }
}

TEST_F(ModelVsSystemTest, NonEmptyPointQueryCostTracksModel) {
  for (const Tuning t : {Tuning(Policy::kLeveling, 8.0, 6.0),
                         Tuning(Policy::kTiering, 4.0, 6.0)}) {
    const double measured = MeasureZ1(t);
    const double predicted = ScaledModel().NonEmptyPointQueryCost(t);
    EXPECT_NEAR(measured, predicted, 0.35 + 0.5 * predicted)
        << t.ToString();
  }
}

TEST_F(ModelVsSystemTest, FilterMemoryReducesMeasuredEmptyReadIo) {
  // Monotonicity the model predicts: more bits per entry, fewer I/Os.
  const double io_h0 = MeasureZ0(Tuning(Policy::kLeveling, 6.0, 0.0));
  const double io_h5 = MeasureZ0(Tuning(Policy::kLeveling, 6.0, 5.0));
  const double io_h9 = MeasureZ0(Tuning(Policy::kLeveling, 6.0, 9.0));
  EXPECT_GT(io_h0, io_h5);
  EXPECT_GT(io_h5, io_h9);
}

TEST_F(ModelVsSystemTest, TieringCostsMoreReadsThanLevelingOnSystem) {
  const double tier = MeasureZ0(Tuning(Policy::kTiering, 6.0, 3.0));
  const double level = MeasureZ0(Tuning(Policy::kLeveling, 6.0, 3.0));
  EXPECT_GE(tier, level - 0.05);
}

TEST_F(ModelVsSystemTest, RangeQueryIoScalesWithRuns) {
  // Leveling should serve short scans with fewer page touches than
  // tiering at equal T (fewer runs per level).
  auto measure_range = [&](const Tuning& t) {
    auto db = OpenTunedShardedDb(cfg_, t, eopts_.actual_entries,
                                 /*num_shards=*/1,
                                 /*background_maintenance=*/false);
    workload::KeyUniverse universe(eopts_.actual_entries);
    Rng rng(9);
    const lsm::Statistics before = (*db)->TotalStats();
    const int n = 500;
    for (int i = 0; i < n; ++i) {
      const lsm::Key lo = universe.SampleExisting(&rng);
      (void)(*db)->Scan(lo, lo + 8);
    }
    const lsm::Statistics d = (*db)->TotalStats().Delta(before);
    return static_cast<double>(d.range_pages_read) / n;
  };
  const double level = measure_range(Tuning(Policy::kLeveling, 5.0, 5.0));
  const double tier = measure_range(Tuning(Policy::kTiering, 5.0, 5.0));
  EXPECT_LE(level, tier + 0.05);
}

}  // namespace
}  // namespace endure::bridge
