// Differential tests: seeded random op traces (uniform and skewed key
// distributions) run against ShardedDB and a std::map oracle. Every
// Get/Scan is compared op-by-op, so a divergence reports the seed and
// the first diverging op index — a deterministic reproducer. One shard
// and several x both storage backends x both maintenance modes are
// covered; the multi-threaded linearizability side lives in
// sharded_db_test.cc.
//
// The kill-point harness at the bottom additionally drops the process
// state (CrashForTesting: WAL abandoned mid-buffer, no shutdown
// sync) at a seed-derived random op, reopens the durable
// deployment, and verifies it against the oracle's state at the kill
// point — under WalSyncMode::kPerBatch every acknowledged write must
// survive — then keeps driving the same trace on the recovered instance.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <ostream>
#include <string>

#include "lsm/lsm_tree.h"
#include "lsm/page_store.h"
#include "lsm/sharded_db.h"
#include "testing/reference_model.h"
#include "util/random.h"

namespace endure::lsm {
namespace {

using endure::testing::GenerateTrace;
using endure::testing::KeyDistribution;
using endure::testing::Op;
using endure::testing::ReferenceModel;
using endure::testing::VersionedOracle;

Options SmallOpts(StorageBackend backend) {
  Options o;
  o.size_ratio = 4;
  o.buffer_entries = 128;  // small buffer: traces cross many flush edges
  o.entries_per_page = 4;
  o.filter_bits_per_entry = 6.0;
  o.backend = backend;
  o.storage_dir = "/tmp/endure_differential_test";
  return o;
}

/// Runs ops[begin, end) against `db` and `oracle`; fails (with seed and
/// op index) at the first divergence. kReconfigure ops apply
/// `tunings[op.value]` live (ApplyTuning); the oracle is untouched — a
/// reconfiguration must never change contents.
void RunOps(ShardedDB* db, const std::vector<Op>& ops, size_t begin,
            size_t end, ReferenceModel* oracle_ptr, uint64_t seed,
            const std::vector<Options>* tunings = nullptr,
            VersionedOracle* versioned = nullptr) {
  ReferenceModel& oracle = *oracle_ptr;
  for (size_t i = begin; i < end; ++i) {
    const Op& op = ops[i];
    SCOPED_TRACE(::testing::Message()
                 << "seed=" << seed << " op_index=" << i << " "
                 << op.ToString());
    switch (op.kind) {
      case Op::kPut:
        db->Put(op.key, op.value);
        oracle.Put(op.key, op.value);
        if (versioned != nullptr) versioned->Put(op.key, op.value);
        break;
      case Op::kDelete:
        db->Delete(op.key);
        oracle.Delete(op.key);
        if (versioned != nullptr) versioned->Delete(op.key);
        break;
      case Op::kGet: {
        const auto got = db->Get(op.key);
        const auto want = oracle.Get(op.key);
        ASSERT_EQ(got.has_value(), want.has_value());
        if (want.has_value()) ASSERT_EQ(*got, *want);
        break;
      }
      case Op::kScan: {
        const std::vector<Entry> got = db->Scan(op.key, op.hi).value();
        const auto want = oracle.Scan(op.key, op.hi);
        ASSERT_EQ(got.size(), want.size());
        for (size_t j = 0; j < want.size(); ++j) {
          ASSERT_EQ(got[j].key, want[j].first);
          ASSERT_EQ(got[j].value, want[j].second);
        }
        break;
      }
      case Op::kFlush:
        db->Flush();
        break;
      case Op::kReconfigure: {
        ASSERT_NE(tunings, nullptr);
        ASSERT_TRUE(
            db->ApplyTuning((*tunings)[op.value % tunings->size()]).ok());
        break;
      }
      case Op::kSnapshotScan: {
        // Single-threaded trace: the only valid snapshot is the latest
        // state, so the validity window degenerates to one index. A
        // widened window must also accept (monotonicity of the check).
        ASSERT_NE(versioned, nullptr);
        const std::vector<Entry> got = db->Scan(op.key, op.hi).value();
        std::vector<std::pair<Key, Value>> observed;
        observed.reserve(got.size());
        for (const Entry& e : got) observed.emplace_back(e.key, e.value);
        const uint64_t now = versioned->last_index();
        uint64_t matched = 0;
        ASSERT_TRUE(versioned->ScanMatchesSomeIndex(observed, op.key, op.hi,
                                                    now, now, &matched));
        ASSERT_EQ(matched, now);
        const uint64_t k_low = now >= 16 ? now - 16 : 0;
        ASSERT_TRUE(versioned->ScanMatchesSomeIndex(observed, op.key, op.hi,
                                                    k_low, now));
        break;
      }
    }
  }
}

/// Full-state check: the whole key domain in one scan against the oracle.
void VerifyFullScan(ShardedDB* db, const ReferenceModel& oracle, uint64_t seed,
                    const char* where) {
  const std::vector<Entry> got = db->Scan(0, ~0ull).value();
  const auto want = oracle.Scan(0, ~0ull);
  ASSERT_EQ(got.size(), want.size()) << "seed=" << seed << " " << where;
  for (size_t j = 0; j < want.size(); ++j) {
    ASSERT_EQ(got[j].key, want[j].first) << "seed=" << seed << " " << where;
    ASSERT_EQ(got[j].value, want[j].second)
        << "seed=" << seed << " " << where;
  }
}

/// Whole-trace differential: fresh oracle, every op, final scan.
void RunDifferential(ShardedDB* db, const std::vector<Op>& ops, uint64_t seed,
                     const std::vector<Options>* tunings = nullptr) {
  ReferenceModel oracle;
  RunOps(db, ops, 0, ops.size(), &oracle, seed, tunings);
  if (::testing::Test::HasFatalFailure()) return;
  VerifyFullScan(db, oracle, seed, "final scan");
}

struct Config {
  StorageBackend backend;
  KeyDistribution dist;
  size_t ops;
};

std::vector<Config> Configs() {
  return {
      {StorageBackend::kMemory, KeyDistribution::kUniform, 6000},
      {StorageBackend::kMemory, KeyDistribution::kSkewed, 6000},
      {StorageBackend::kFile, KeyDistribution::kUniform, 1500},
      {StorageBackend::kFile, KeyDistribution::kSkewed, 1500},
  };
}

TEST(DifferentialTest, ShardedDbMatchesOracle) {
  for (const Config& c : Configs()) {
    for (uint64_t seed = 11; seed <= 13; ++seed) {
      Options o = SmallOpts(c.backend);
      o.num_shards = 4;
      o.background_maintenance = true;
      auto db = ShardedDB::Open(o);
      ASSERT_TRUE(db.ok());
      RunDifferential(db->get(), GenerateTrace(seed, c.ops, c.dist), seed);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

/// Deployment shapes the shard-parameterized differentials run on. One
/// foreground shard is the experiments' engine (inline flushes, migration
/// converging inside ApplyTuning); the other shapes add the partitioning
/// layer and, with background maintenance, flush/migration jobs in
/// flight on the pool.
struct Shape {
  int num_shards;
  bool background;
};

std::string ShapeName(const Shape& s) {
  return std::to_string(s.num_shards) +
         (s.num_shards == 1 ? "Shard" : "Shards") +
         (s.background ? "Background" : "Foreground");
}

void PrintTo(const Shape& s, std::ostream* os) { *os << ShapeName(s); }

/// Foreground shapes: one shard, and three (non-power-of-two on purpose)
/// for the pure partitioning layer on top.
class DifferentialForegroundTest : public ::testing::TestWithParam<Shape> {};

INSTANTIATE_TEST_SUITE_P(ShardShapes, DifferentialForegroundTest,
                         ::testing::Values(Shape{1, false}, Shape{3, false}));

/// The one-shard foreground engine and a multi-shard deployment with
/// background maintenance.
class DifferentialShapeTest : public ::testing::TestWithParam<Shape> {};

INSTANTIATE_TEST_SUITE_P(ShardShapes, DifferentialShapeTest,
                         ::testing::Values(Shape{1, false}, Shape{4, true}));

/// As DifferentialShapeTest, with a three-shard background deployment.
class DifferentialRetuneKillTest : public ::testing::TestWithParam<Shape> {};

INSTANTIATE_TEST_SUITE_P(ShardShapes, DifferentialRetuneKillTest,
                         ::testing::Values(Shape{1, false}, Shape{3, true}));

TEST_P(DifferentialForegroundTest, ShardedDbForegroundMatchesOracle) {
  for (const Config& c : Configs()) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      Options o = SmallOpts(c.backend);
      o.num_shards = GetParam().num_shards;
      auto db = ShardedDB::Open(o);
      ASSERT_TRUE(db.ok());
      RunDifferential(db->get(), GenerateTrace(seed, c.ops, c.dist), seed);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

/// Tuning presets a live reconfiguration cycles through mid-trace: every
/// mutable knob moves (policy, size ratio, Bloom budget, buffer size,
/// filter allocation, fence skipping), immutable ones stay.
std::vector<Options> ReconfigPresets(const Options& base) {
  std::vector<Options> presets;
  Options a = base;  // shrink T, switch to tiering, fatter filters
  a.size_ratio = 2;
  a.policy = CompactionPolicy::kTiering;
  a.filter_bits_per_entry = 10.0;
  a.buffer_entries = base.buffer_entries / 2;
  presets.push_back(a);
  Options b = base;  // lazy leveling, larger buffer, uniform filters
  b.policy = CompactionPolicy::kLazyLeveling;
  b.size_ratio = 6;
  b.buffer_entries = base.buffer_entries * 2;
  b.filter_allocation = FilterAllocation::kUniform;
  presets.push_back(b);
  Options c = base;  // back to leveling with model-faithful scans
  c.fence_pointer_skip = false;
  c.filter_bits_per_entry = 2.0;
  presets.push_back(c);
  return presets;
}

TEST_P(DifferentialShapeTest, ShardedDbMatchesOracleAcrossLiveReconfigs) {
  // Foreground, the migration converges inside ApplyTuning; with
  // background maintenance the reconfigures land while flush/migration
  // jobs are in flight on the pool — across both backends and key skews.
  const Shape shape = GetParam();
  for (const Config& c : Configs()) {
    for (uint64_t seed = 41; seed <= 42; ++seed) {
      Options base = SmallOpts(c.backend);
      base.num_shards = shape.num_shards;
      base.background_maintenance = shape.background;
      auto db = ShardedDB::Open(base);
      ASSERT_TRUE(db.ok());
      const std::vector<Options> presets = ReconfigPresets(base);
      const auto ops = endure::testing::InjectReconfigures(
          GenerateTrace(seed, c.ops, c.dist), /*every=*/c.ops / 7,
          presets.size());
      RunDifferential(db->get(), ops, seed, &presets);
      if (::testing::Test::HasFatalFailure()) return;
      // The trace may leave migrations pending; converge and re-check.
      (*db)->WaitForMaintenance();
      EXPECT_TRUE((*db)->Progress().structure_conforming());
    }
  }
}

/// Kill-point recovery differential: run a prefix of the trace against a
/// durable deployment, kill it (no shutdown sync, WAL buffer
/// dropped), reopen the directory, verify the recovered state equals the
/// oracle at the kill point (kPerBatch: zero acked-write loss), then
/// drive the rest of the trace on the recovered instance and verify the
/// final state. `reconfigure` injects live retunes into the trace so
/// kills also land between ApplyTuning and migration convergence.
void RunKillPointDifferential(const Options& opts, uint64_t seed,
                              size_t num_ops, KeyDistribution dist,
                              bool reconfigure) {
  std::filesystem::remove_all(opts.storage_dir);
  std::vector<Op> ops = GenerateTrace(seed, num_ops, dist);
  std::vector<Options> presets;
  if (reconfigure) {
    presets = ReconfigPresets(opts);
    ops = endure::testing::InjectReconfigures(ops, /*every=*/num_ops / 5,
                                              presets.size());
  }
  // Seed-derived kill point somewhere in the middle half of the trace.
  Rng rng(seed * 977);
  const size_t kill_at =
      ops.size() / 4 + rng.UniformInt(0, ops.size() / 2);

  ReferenceModel oracle;
  {
    auto db = ShardedDB::Open(opts);
    ASSERT_TRUE(db.ok());
    RunOps(db->get(), ops, 0, kill_at, &oracle, seed,
           reconfigure ? &presets : nullptr);
    if (::testing::Test::HasFatalFailure()) return;
    (*db)->CrashForTesting();
  }
  auto db = ShardedDB::Open(opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  VerifyFullScan(db->get(), oracle, seed, "post-recovery scan");
  if (::testing::Test::HasFatalFailure()) return;
  // The recovered deployment keeps serving the rest of the trace.
  RunOps(db->get(), ops, kill_at, ops.size(), &oracle, seed,
         reconfigure ? &presets : nullptr);
  if (::testing::Test::HasFatalFailure()) return;
  VerifyFullScan(db->get(), oracle, seed, "post-restart final scan");
}

Options DurableSmallOpts(const std::string& dir) {
  Options o = SmallOpts(StorageBackend::kFile);
  o.storage_dir = dir;
  o.durability = true;
  // Per-batch commits: every acknowledged write must survive the kill.
  o.wal_sync_mode = WalSyncMode::kPerBatch;
  return o;
}

/// Durable options for a kill-point run of `shape`, in a directory of
/// its own so the shapes may run concurrently.
Options KillPointOpts(const std::string& dir, const Shape& shape) {
  Options o = DurableSmallOpts(dir + "_" + ShapeName(shape));
  o.num_shards = shape.num_shards;
  o.background_maintenance = shape.background;
  return o;
}

TEST_P(DifferentialShapeTest, KillPointRecoveryShardedDb) {
  const Options o =
      KillPointOpts("/tmp/endure_diff_kill_sharded", GetParam());
  for (uint64_t seed = 71; seed <= 73; ++seed) {
    RunKillPointDifferential(o, seed, 1200, KeyDistribution::kUniform,
                             /*reconfigure=*/false);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST_P(DifferentialRetuneKillTest,
       KillPointRecoveryShardedDbAcrossReconfigs) {
  // The hardest case: kills land between ApplyTuning and migration
  // convergence — with background maintenance, while flushes and the
  // migration are mid-flight; the reopened deployment must resume both
  // without losing an acknowledged write.
  const Options o =
      KillPointOpts("/tmp/endure_diff_kill_sharded_retune", GetParam());
  for (uint64_t seed = 81; seed <= 82; ++seed) {
    RunKillPointDifferential(o, seed, 1200, KeyDistribution::kSkewed,
                             /*reconfigure=*/true);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(DifferentialTest, VersionedOracleReconstructsPastStates) {
  // The versioned oracle itself: per-index reconstruction, window
  // acceptance/rejection, and truncation — exercised directly so a
  // harness failure can be attributed to engine vs. oracle.
  VersionedOracle v;
  EXPECT_EQ(v.last_index(), 0u);
  EXPECT_EQ(v.Put(5, 50), 1u);
  EXPECT_EQ(v.Put(7, 70), 2u);
  EXPECT_EQ(v.Put(5, 51), 3u);
  EXPECT_EQ(v.Delete(7), 4u);

  EXPECT_EQ(v.ValueAt(5, 0), std::nullopt);
  EXPECT_EQ(v.ValueAt(5, 1), std::make_optional<Value>(50));
  EXPECT_EQ(v.ValueAt(5, 2), std::make_optional<Value>(50));
  EXPECT_EQ(v.ValueAt(5, 4), std::make_optional<Value>(51));
  EXPECT_EQ(v.ValueAt(7, 3), std::make_optional<Value>(70));
  EXPECT_EQ(v.ValueAt(7, 4), std::nullopt);

  using Pairs = std::vector<std::pair<Key, Value>>;
  EXPECT_EQ(v.ScanAt(0, 100, 2), (Pairs{{5, 50}, {7, 70}}));
  EXPECT_EQ(v.ScanAt(0, 100, 4), (Pairs{{5, 51}}));

  // A state that held at index 2 is accepted by any window covering 2
  // and rejected by windows excluding it.
  const Pairs at2{{5, 50}, {7, 70}};
  uint64_t matched = ~0ull;
  EXPECT_TRUE(v.ScanMatchesSomeIndex(at2, 0, 100, 0, 4, &matched));
  EXPECT_EQ(matched, 2u);
  EXPECT_TRUE(v.ScanMatchesSomeIndex(at2, 0, 100, 2, 2));
  EXPECT_FALSE(v.ScanMatchesSomeIndex(at2, 0, 100, 3, 4));
  EXPECT_FALSE(v.ScanMatchesSomeIndex(at2, 0, 100, 0, 1));
  // A state that never held is rejected by every window: key 7 reads 70
  // only at indices 2-3, but key 5 is absent only at index 0 — no single
  // index explains both. This is the mixed-prefix (torn) read the
  // snapshot path must make impossible.
  EXPECT_FALSE(v.ScanMatchesSomeIndex(Pairs{{7, 70}}, 0, 100, 0, 4));

  // Point-read windows follow the same rule.
  EXPECT_TRUE(v.GetMatchesSomeIndex(5, std::make_optional<Value>(50), 0, 2));
  EXPECT_TRUE(v.GetMatchesSomeIndex(5, std::make_optional<Value>(51), 2, 3));
  EXPECT_FALSE(v.GetMatchesSomeIndex(5, std::make_optional<Value>(50), 3, 4));
  EXPECT_TRUE(v.GetMatchesSomeIndex(7, std::nullopt, 3, 4));
  EXPECT_FALSE(v.GetMatchesSomeIndex(7, std::nullopt, 2, 3));

  // Truncation rolls back to a prefix (the crash-recovery realignment).
  v.TruncateTo(2);
  EXPECT_EQ(v.last_index(), 2u);
  EXPECT_EQ(v.ScanAt(0, 100, 2), at2);
  EXPECT_EQ(v.Put(9, 90), 3u);  // indices resume from the truncation point
  EXPECT_EQ(v.ValueAt(5, 3), std::make_optional<Value>(50));
}

TEST_P(DifferentialShapeTest, ShardedDbSnapshotScansMatchVersionedOracle) {
  // Single-threaded snapshot-consistency differential: kSnapshotScan ops
  // route through the same lock-free snapshot read path and must equal
  // the versioned oracle's latest state exactly (the window degenerates
  // when there is no concurrency). The multi-shard shape also reads
  // through the block cache.
  const Shape shape = GetParam();
  for (const Config& c : Configs()) {
    Options o = SmallOpts(c.backend);
    o.num_shards = shape.num_shards;
    o.background_maintenance = shape.background;
    if (shape.background) o.block_cache_bytes = 64 * 1024;
    auto db = ShardedDB::Open(o);
    ASSERT_TRUE(db.ok());
    ReferenceModel oracle;
    VersionedOracle versioned;
    const auto ops = GenerateTrace(92, c.ops, c.dist, /*key_domain=*/8192,
                                   /*snapshot_scan_fraction=*/0.15);
    RunOps(db->get(), ops, 0, ops.size(), &oracle, 92, nullptr, &versioned);
    if (::testing::Test::HasFatalFailure()) return;
    VerifyFullScan(db->get(), oracle, 92, "final scan");
  }
}

TEST(DifferentialTest, SealedBufferStaysVisible) {
  // Background mode on a bare tree with no scheduler: the first full
  // buffer seals, the active one then absorbs writes past capacity, and
  // every acknowledged write must stay readable with nothing flushed.
  Options o = SmallOpts(StorageBackend::kMemory);
  o.background_maintenance = true;
  Statistics stats;
  MemPageStore store(o.entries_per_page, &stats);
  LsmTree tree(o, &store, &stats);
  ReferenceModel oracle;
  for (Key k = 0; k < 3 * o.buffer_entries; ++k) {
    ASSERT_TRUE(tree.Put(k, k + 1).ok());
    oracle.Put(k, k + 1);
  }
  ASSERT_TRUE(tree.HasSealedMemtable());
  EXPECT_EQ(stats.flushes, 0u);
  for (Key k = 0; k < 3 * o.buffer_entries; ++k) {
    const auto got = tree.Get(k);
    ASSERT_TRUE(got.has_value()) << "key " << k << " lost behind the seal";
    EXPECT_EQ(*got, *oracle.Get(k));
  }
}

}  // namespace
}  // namespace endure::lsm
