// CompactionScheduler and the prepare/execute/install maintenance
// protocol: rate-limiter semantics, strict priority admission, deadline
// (timer-thread) retry requeues that keep backoffs off the pool workers,
// WaitIdle through self-rescheduling chains, RunSubtasks, partitioned
// merges matching sequential ones byte for byte, and the LsmTree unit
// protocol including its stale-unit discard races, the operator Flush
// handing failed work back to the scheduler, and a foreground tree (the
// writer runs the units) matching a scheduler-driven one. Run under
// ThreadSanitizer in CI's tsan leg.

#include "lsm/compaction_scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "lsm/compaction.h"
#include "lsm/lsm_tree.h"
#include "lsm/page_store.h"
#include "lsm/run_builder.h"
#include "lsm/sharded_db.h"
#include "util/fault_injection.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace endure::lsm {
namespace {

using Clock = std::chrono::steady_clock;

uint64_t MsSince(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                            start)
          .count());
}

// ---------------------------------------------------------------- limiter --

TEST(CompactionSchedulerLimiterTest, UnlimitedNeverWaits) {
  RateLimiter limiter(0);
  EXPECT_EQ(limiter.Acquire(1 << 30), 0u);
  EXPECT_EQ(limiter.rate(), 0u);
}

TEST(CompactionSchedulerLimiterTest, BurstThenThrottle) {
  RateLimiter limiter(1 << 20);  // 1 MiB/s, 1 MiB burst
  // The initial burst admits a full second of bytes without waiting.
  EXPECT_EQ(limiter.Acquire(1 << 20), 0u);
  // The bucket surfaces at zero almost immediately, then this chunk
  // borrows half a second of tokens below zero (big chunks are smoothed,
  // not stalled for their full duration)...
  limiter.Acquire(1 << 19);
  // ...so the debt is paid HERE: the next acquire waits it out.
  const auto start = Clock::now();
  limiter.Acquire(1);
  EXPECT_GE(MsSince(start), 200u);
  EXPECT_LT(MsSince(start), 5000u);
}

TEST(CompactionSchedulerLimiterTest, SetRateZeroReleasesWaiters) {
  RateLimiter limiter(1024);  // 1 KiB/s: the second acquire would wait ~60s
  limiter.Acquire(60 * 1024);
  std::thread release([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    limiter.set_rate(0);
  });
  const auto start = Clock::now();
  limiter.Acquire(60 * 1024);
  EXPECT_LT(MsSince(start), 5000u);
  release.join();
}

TEST(CompactionSchedulerLimiterTest, StopReleasesAndDisables) {
  RateLimiter limiter(1024);
  limiter.Acquire(60 * 1024);  // drain the burst far below zero
  std::thread stop([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    limiter.Stop();
  });
  const auto start = Clock::now();
  limiter.Acquire(60 * 1024);
  EXPECT_LT(MsSince(start), 5000u);
  stop.join();
  EXPECT_EQ(limiter.Acquire(1 << 30), 0u);  // stopped: every acquire free
}

// -------------------------------------------------------------- scheduler --

TEST(CompactionSchedulerTest, RunsJobsStrictlyByPriorityThenFifo) {
  ThreadPool pool(1);
  Statistics stats;
  CompactionScheduler sched(&pool, {/*max_parallel=*/1, 0}, &stats);

  // Occupy the single admission slot so the later enqueues pile up in
  // the priority queue rather than racing straight into the pool.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  ASSERT_TRUE(sched.Enqueue(0, [&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  }));

  std::vector<int> order;
  std::mutex order_mu;
  auto record = [&](int tag) {
    return [&order, &order_mu, tag] {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(tag);
    };
  };
  ASSERT_TRUE(sched.Enqueue(2, record(20)));  // major compaction
  ASSERT_TRUE(sched.Enqueue(1, record(10)));  // migration step
  ASSERT_TRUE(sched.Enqueue(0, record(1)));   // flush
  ASSERT_TRUE(sched.Enqueue(0, record(2)));   // flush, after the first
  ASSERT_TRUE(sched.Enqueue(2, record(21)));

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  sched.WaitIdle();

  EXPECT_EQ(order, (std::vector<int>{1, 2, 10, 20, 21}));
  EXPECT_EQ(stats.sched_jobs.load(), 6u);
  EXPECT_GE(stats.sched_queue_peak.load(), 5u);
}

TEST(CompactionSchedulerTest, DelayedJobDoesNotOccupyAWorker) {
  // One worker. A delayed job parked on the timer must not keep an
  // immediate job from running — the regression the deadline queue
  // fixes (the old backoff slept ON the worker).
  ThreadPool pool(1);
  Statistics stats;
  CompactionScheduler sched(&pool, {1, 0}, &stats);

  std::atomic<bool> immediate_ran{false};
  ASSERT_TRUE(sched.EnqueueDelayed(0, 300, [] {}));
  const auto start = Clock::now();
  ASSERT_TRUE(sched.Enqueue(0, [&] { immediate_ran = true; }));
  while (!immediate_ran && MsSince(start) < 5000) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(immediate_ran);
  // Ran while the delayed job was still parked, not serialized after it.
  EXPECT_LT(MsSince(start), 250u);
  sched.WaitIdle();  // must cover the delayed job too
  EXPECT_EQ(stats.sched_requeues.load(), 1u);
}

TEST(CompactionSchedulerTest, WaitIdleCoversSelfRequeueChains) {
  ThreadPool pool(2);
  Statistics stats;
  CompactionScheduler sched(&pool, {2, 0}, &stats);
  std::atomic<int> runs{0};
  // The job requeues itself BEFORE returning, so the active count never
  // dips to zero mid-chain.
  std::function<void()> step = [&] {
    if (++runs < 4) sched.Enqueue(1, step);
  };
  ASSERT_TRUE(sched.Enqueue(1, step));
  sched.WaitIdle();
  EXPECT_EQ(runs.load(), 4);
}

TEST(CompactionSchedulerTest, StopDropsQueuedAndRefusesNewJobs) {
  ThreadPool pool(1);
  CompactionScheduler sched(&pool, {1, 0}, nullptr);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> ran{0};
  ASSERT_TRUE(sched.Enqueue(0, [&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
    ++ran;
  }));
  ASSERT_TRUE(sched.Enqueue(0, [&] { ++ran; }));      // queued
  ASSERT_TRUE(sched.EnqueueDelayed(0, 10000, [&] { ++ran; }));
  sched.Stop();
  EXPECT_TRUE(sched.stopped());
  EXPECT_FALSE(sched.Enqueue(0, [&] { ++ran; }));
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  pool.Wait();
  // Only the job already in the pool ran; queued + delayed were dropped.
  EXPECT_EQ(ran.load(), 1);
  sched.WaitIdle();  // dropped jobs must not leave the count dangling
}

// ------------------------------------------------------------ RunSubtasks --

TEST(CompactionSchedulerSubtaskTest, CoversEveryIndexWithAndWithoutPool) {
  for (ThreadPool* pool :
       {static_cast<ThreadPool*>(nullptr), new ThreadPool(3)}) {
    std::vector<std::atomic<int>> hits(64);
    RunSubtasks(pool, 64, [&](size_t i) { ++hits[i]; });
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
    delete pool;
  }
}

TEST(CompactionSchedulerSubtaskTest, SafeFromAPoolWorkerItself) {
  // Code already running ON the pool must be able to fan out without
  // deadlock even when every worker is busy (caller participation).
  ThreadPool pool(1);
  std::atomic<int> total{0};
  pool.Submit([&] {
    RunSubtasks(&pool, 16, [&](size_t) { ++total; });
  });
  pool.Wait();
  EXPECT_EQ(total.load(), 16);
}

// ------------------------------------------------------ partitioned merge --

class PartitionedMergeTest : public ::testing::Test {
 protected:
  PartitionedMergeTest() : store_(4, &stats_) {}

  // `Run` alone would resolve to testing::Test::Run inside the fixture.
  std::shared_ptr<endure::lsm::Run> RunOf(const std::vector<Entry>& entries) {
    return BuildRun(&store_, entries, 8.0, IoContext::kFlush).value();
  }

  Statistics stats_;
  MemPageStore store_;
};

TEST_F(PartitionedMergeTest, MatchesSequentialMergeExactly) {
  // Three overlapping runs, hundreds of pages, updates and tombstones.
  Rng rng(7);
  std::vector<Entry> a, b, c;
  for (Key k = 0; k < 3000; ++k) a.push_back({3 * k, 5, k, EntryType::kValue});
  for (Key k = 0; k < 2000; ++k) {
    b.push_back({4 * k, 3,
                 rng.NextDouble() < 0.1 ? 0 : 4 * k + 1,
                 rng.NextDouble() < 0.1 ? EntryType::kTombstone
                                        : EntryType::kValue});
  }
  for (Key k = 500; k < 2500; ++k) c.push_back({k, 1, 9, EntryType::kValue});
  auto ra = RunOf(a), rb = RunOf(b), rc = RunOf(c);

  auto sequential =
      MergeRuns(&store_, {ra, rb, rc}, 8.0, /*drop_tombstones=*/true)
          .value();
  ASSERT_NE(sequential, nullptr);

  ThreadPool pool(3);
  MergeLimits limits;
  limits.subtask_pool = &pool;
  limits.max_subtasks = 4;
  limits.min_pages_to_partition = 8;  // force partitioning at this size
  auto partitioned =
      MergeRuns(&store_, {ra, rb, rc}, 8.0, /*drop_tombstones=*/true,
                limits)
          .value();
  ASSERT_NE(partitioned, nullptr);

  ASSERT_EQ(partitioned->num_entries(), sequential->num_entries());
  auto si = sequential->NewIterator(IoContext::kCompaction);
  auto pi = partitioned->NewIterator(IoContext::kCompaction);
  while (si.Valid()) {
    ASSERT_TRUE(pi.Valid());
    EXPECT_EQ(pi.entry().key, si.entry().key);
    EXPECT_EQ(pi.entry().value, si.entry().value);
    EXPECT_EQ(pi.entry().seq, si.entry().seq);
    EXPECT_EQ(pi.entry().type, si.entry().type);
    si.Next();
    pi.Next();
  }
  EXPECT_FALSE(pi.Valid());
  EXPECT_GE(stats_.compactions_partitioned.load(), 1u);
  EXPECT_GE(stats_.compaction_subtasks.load(), 2u);
}

TEST_F(PartitionedMergeTest, SmallMergesStayUnpartitioned) {
  std::vector<Entry> a, b;
  for (Key k = 0; k < 40; ++k) a.push_back({2 * k, 2, k, EntryType::kValue});
  for (Key k = 0; k < 40; ++k) {
    b.push_back({2 * k + 1, 1, k, EntryType::kValue});
  }
  ThreadPool pool(2);
  MergeLimits limits;
  limits.subtask_pool = &pool;
  limits.max_subtasks = 4;  // default 256-page gate stays in force
  auto merged = MergeRuns(&store_, {RunOf(a), RunOf(b)}, 8.0, false,
                          limits)
                    .value();
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->num_entries(), 80u);
  EXPECT_EQ(stats_.compactions_partitioned.load(), 0u);
}

// ------------------------------------------- prepare / execute / install --

/// Drives prepare/execute/install until no unit is pending, as the
/// scheduler does (no lock to juggle: nothing races the test).
void RunUnitsByHand(LsmTree* tree) {
  for (;;) {
    MaintenanceUnit unit = tree->PrepareMaintenance();
    if (unit.kind == MaintenanceUnit::Kind::kNone) return;
    ASSERT_TRUE(tree->ExecuteMaintenance(&unit, MergeLimits{}).ok());
    ASSERT_TRUE(tree->InstallMaintenance(&unit).ok());
  }
}

class MaintenanceProtocolTest : public ::testing::Test {
 protected:
  static Options TreeOpts() {
    Options o;
    o.policy = CompactionPolicy::kLeveling;
    o.size_ratio = 4;
    o.buffer_entries = 16;
    o.entries_per_page = 4;
    o.filter_bits_per_entry = 8.0;
    o.background_maintenance = true;  // else every write flushes inline
    return o;
  }

  MaintenanceProtocolTest()
      : store_(4, &stats_), tree_(TreeOpts(), &store_, &stats_) {}

  /// Puts exactly enough keys to seal the active buffer (no scheduler is
  /// attached, so the sealed buffer stays pending).
  void FillToSeal(Key base) {
    for (Key k = 0; k < 17; ++k) {
      ASSERT_TRUE(tree_.Put(base + 2 * k, base + k).ok());
    }
    ASSERT_TRUE(tree_.HasSealedMemtable());
  }

  Statistics stats_;
  MemPageStore store_;
  LsmTree tree_;
};

TEST_F(MaintenanceProtocolTest, FlushUnitMovesSealedBufferIntoLevelOne) {
  FillToSeal(0);
  MaintenanceUnit unit = tree_.PrepareMaintenance();
  ASSERT_EQ(unit.kind, MaintenanceUnit::Kind::kFlush);
  EXPECT_EQ(unit.priority, 0);
  ASSERT_TRUE(tree_.ExecuteMaintenance(&unit, MergeLimits{}).ok());
  ASSERT_NE(unit.output, nullptr);
  ASSERT_TRUE(tree_.InstallMaintenance(&unit).ok());
  EXPECT_FALSE(tree_.HasSealedMemtable());
  EXPECT_EQ(tree_.RunsInLevel(1), 1u);
  for (Key k = 0; k < 16; ++k) {
    ASSERT_TRUE(tree_.Get(2 * k).has_value()) << k;
  }
}

TEST_F(MaintenanceProtocolTest, OverFullBufferWaitsForThePendingFlush) {
  // Background mode never flushes inline: with a sealed buffer pending,
  // the active buffer absorbs writes past capacity, and the first write
  // after the pending flush installs seals it.
  FillToSeal(0);
  for (Key k = 0; k < 20; ++k) {
    ASSERT_TRUE(tree_.Put(1000 + k, k).ok());
  }
  EXPECT_GT(tree_.memtable().size(), TreeOpts().buffer_entries);
  EXPECT_EQ(stats_.flushes.load(), 0u);

  MaintenanceUnit unit = tree_.PrepareMaintenance();
  ASSERT_EQ(unit.kind, MaintenanceUnit::Kind::kFlush);
  ASSERT_TRUE(tree_.ExecuteMaintenance(&unit, MergeLimits{}).ok());
  ASSERT_TRUE(tree_.InstallMaintenance(&unit).ok());
  EXPECT_FALSE(tree_.HasSealedMemtable());

  ASSERT_TRUE(tree_.Put(2000, 1).ok());
  EXPECT_TRUE(tree_.HasSealedMemtable());
  EXPECT_EQ(tree_.memtable().size(), 0u);
  RunUnitsByHand(&tree_);
  EXPECT_FALSE(tree_.HasSealedMemtable());
  for (Key k = 0; k < 17; ++k) {
    ASSERT_EQ(tree_.Get(2 * k).value_or(~0ull), k) << k;
  }
  for (Key k = 0; k < 20; ++k) {
    ASSERT_EQ(tree_.Get(1000 + k).value_or(~0ull), k) << k;
  }
  ASSERT_EQ(tree_.Get(2000).value_or(0), 1u);
}

TEST_F(MaintenanceProtocolTest, StaleFlushUnitDiscardsAfterForegroundFlush) {
  FillToSeal(0);
  MaintenanceUnit unit = tree_.PrepareMaintenance();
  ASSERT_EQ(unit.kind, MaintenanceUnit::Kind::kFlush);
  ASSERT_TRUE(tree_.ExecuteMaintenance(&unit, MergeLimits{}).ok());
  // A foreground Flush consumed the sealed buffer while the unit was
  // executing (in real use: off the lock).
  ASSERT_TRUE(tree_.Flush().ok());
  const uint64_t entries_before = tree_.TotalEntries();
  ASSERT_TRUE(tree_.InstallMaintenance(&unit).ok());
  // Discarded: no double residency.
  EXPECT_EQ(tree_.TotalEntries(), entries_before);
  for (Key k = 0; k < 16; ++k) {
    ASSERT_TRUE(tree_.Get(2 * k).has_value()) << k;
  }
}

TEST_F(MaintenanceProtocolTest, StaleEpochUnitDiscardsAfterReconfigure) {
  FillToSeal(0);
  MaintenanceUnit unit = tree_.PrepareMaintenance();
  ASSERT_TRUE(tree_.ExecuteMaintenance(&unit, MergeLimits{}).ok());
  Options next = TreeOpts();
  next.size_ratio = 6;
  ASSERT_TRUE(tree_.Reconfigure(next).ok());
  ASSERT_TRUE(tree_.InstallMaintenance(&unit).ok());
  // The unit was built under the old tuning: discarded, work still
  // pending for a fresh unit under the new epoch.
  EXPECT_TRUE(tree_.HasSealedMemtable());
  EXPECT_TRUE(tree_.HasMaintenanceWork());
  RunUnitsByHand(&tree_);
  EXPECT_FALSE(tree_.HasSealedMemtable());
}

TEST_F(MaintenanceProtocolTest, StaleCompactionUnitDiscardsWhenInputsMoved) {
  FillToSeal(0);
  RunUnitsByHand(&tree_);
  FillToSeal(100);
  // Flush by hand so level 1 stops conforming (two runs under leveling).
  MaintenanceUnit flush = tree_.PrepareMaintenance();
  ASSERT_EQ(flush.kind, MaintenanceUnit::Kind::kFlush);
  ASSERT_TRUE(tree_.ExecuteMaintenance(&flush, MergeLimits{}).ok());
  ASSERT_TRUE(tree_.InstallMaintenance(&flush).ok());
  ASSERT_GT(tree_.RunsInLevel(1), 1u);

  MaintenanceUnit unit = tree_.PrepareMaintenance();
  ASSERT_EQ(unit.kind, MaintenanceUnit::Kind::kCompaction);
  ASSERT_TRUE(tree_.ExecuteMaintenance(&unit, MergeLimits{}).ok());
  // A racing foreground Flush merges level 1 before install: the unit's
  // inputs are no longer resident.
  FillToSeal(200);
  ASSERT_TRUE(tree_.Flush().ok());
  const uint64_t entries_before = tree_.TotalEntries();
  ASSERT_TRUE(tree_.InstallMaintenance(&unit).ok());
  EXPECT_EQ(tree_.TotalEntries(), entries_before);  // discarded
  RunUnitsByHand(&tree_);
  for (Key k = 0; k < 16; ++k) {
    ASSERT_TRUE(tree_.Get(2 * k).has_value()) << k;
    ASSERT_TRUE(tree_.Get(100 + 2 * k).has_value()) << k;
    ASSERT_TRUE(tree_.Get(200 + 2 * k).has_value()) << k;
  }
}

TEST_F(MaintenanceProtocolTest, StepwiseCascadeConvergesAndConforms) {
  // Push several buffers through the protocol; every level must conform
  // when the work queue drains.
  for (int round = 0; round < 12; ++round) {
    FillToSeal(1000 * round);
    RunUnitsByHand(&tree_);
  }
  EXPECT_FALSE(tree_.HasMaintenanceWork());
  for (int round = 0; round < 12; ++round) {
    for (Key k = 0; k < 16; ++k) {
      ASSERT_TRUE(tree_.Get(1000 * round + 2 * k).has_value())
          << round << ":" << k;
    }
  }
}

TEST_F(MaintenanceProtocolTest, PutReturnsWhileFlushInstallPublishes) {
  // A durable shard's flush install publishes its manifest after
  // releasing the shard lock: with the manifest fsync stalled, a write
  // issued mid-publication must not wait the stall out.
  ScopedFaultInjector fi;
  Options o = TreeOpts();
  o.backend = StorageBackend::kFile;
  o.storage_dir = "/tmp/endure_publish_stall_test";
  o.durability = true;
  // The served mode; it also keeps device latency out of the timed Put
  // (no fsync on its commit).
  o.wal_sync_mode = WalSyncMode::kBackground;
  o.maintenance_threads = 1;
  std::filesystem::remove_all(o.storage_dir);
  auto db = std::move(ShardedDB::Open(o)).value();
  constexpr uint32_t kStallMs = 200;
  fi->Arm(FaultSite::kFileFsync, {.count = UINT64_MAX, .stall_ms = kStallMs});

  // One buffer and a bit: the full buffer seals, its flush unit installs
  // and then stalls publishing.
  for (Key k = 0; k < 17; ++k) ASSERT_TRUE(db->Put(k, k + 1).ok());
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (fi->seen(FaultSite::kFileFsync) == 0 && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(fi->seen(FaultSite::kFileFsync), 1u);

  const auto start = Clock::now();
  ASSERT_TRUE(db->Put(1000, 7).ok());
  EXPECT_LT(MsSince(start), kStallMs / 2)
      << "a Put waited on the manifest fsync under the shard lock";
  for (Key k = 0; k < 17; ++k) {
    ASSERT_EQ(db->Get(k).value_or(0), k + 1) << k;
  }
  ASSERT_EQ(db->Get(1000).value_or(0), 7u);
  db->WaitForMaintenance();
  EXPECT_GE(db->TotalStats().flushes.load(), 1u);
  EXPECT_TRUE(db->Health().ok());
}

TEST_F(MaintenanceProtocolTest, FailedOperatorFlushReArmsMaintenance) {
  // An operator Flush runs the units on the calling thread; when one
  // fails, the sealed buffer it leaves must go back to the scheduler
  // rather than wait for the next write to re-arm maintenance.
  ScopedFaultInjector fi;
  Options o = TreeOpts();
  o.buffer_entries = 64;
  o.backend = StorageBackend::kFile;
  o.storage_dir = "/tmp/endure_flush_rearm_test";
  o.maintenance_threads = 1;
  std::filesystem::remove_all(o.storage_dir);
  auto db = std::move(ShardedDB::Open(o)).value();
  for (Key k = 0; k < 40; ++k) ASSERT_TRUE(db->Put(k, k + 1).ok());
  fi->Arm(FaultSite::kSegmentWrite, {.count = 1, .err = EIO});
  EXPECT_FALSE(db->Flush().ok());
  fi->Disarm(FaultSite::kSegmentWrite);

  db->WaitForMaintenance();
  const LsmTree& tree = db->shard_tree(0);
  EXPECT_FALSE(tree.HasSealedMemtable());
  EXPECT_FALSE(tree.HasMaintenanceWork());
  EXPECT_EQ(tree.RunsInLevel(1), 1u);
  EXPECT_TRUE(db->Health().ok());
  for (Key k = 0; k < 40; ++k) {
    ASSERT_EQ(db->Get(k).value_or(0), k + 1) << k;
  }
}

// -------------------------------------- foreground vs scheduled units --

struct EquivalenceCase {
  CompactionPolicy policy;
  int size_ratio;
  double bits_per_entry;
  uint64_t seed;
};

std::string CaseName(const ::testing::TestParamInfo<EquivalenceCase>& info) {
  static const char* const kPolicy[] = {"Leveling", "Tiering",
                                        "LazyLeveling"};
  const EquivalenceCase& c = info.param;
  return std::string(kPolicy[static_cast<int>(c.policy)]) + "_T" +
         std::to_string(c.size_ratio) + "_h" +
         std::to_string(static_cast<int>(c.bits_per_entry)) + "_seed" +
         std::to_string(c.seed);
}

std::vector<EquivalenceCase> AllEquivalenceCases() {
  std::vector<EquivalenceCase> out;
  for (CompactionPolicy policy :
       {CompactionPolicy::kLeveling, CompactionPolicy::kTiering,
        CompactionPolicy::kLazyLeveling}) {
    for (int t : {2, 3, 4, 7}) {
      for (double h : {3.0, 8.0}) {
        for (uint64_t seed : {1, 2}) out.push_back({policy, t, h, seed});
      }
    }
  }
  return out;
}

class MaintenanceProtocolEquivalenceTest
    : public ::testing::TestWithParam<EquivalenceCase> {};

/// A tree built from the case's tuning. Run() bulk-loads it and applies
/// the case's write stream; a background tree has its units driven by
/// hand after every write.
struct EquivalenceTree {
  EquivalenceTree(const EquivalenceCase& c, bool background)
      : store(4, &stats), tree(MakeOptions(c, background), &store, &stats) {}

  static Options MakeOptions(const EquivalenceCase& c, bool background) {
    Options o;
    o.policy = c.policy;
    o.size_ratio = c.size_ratio;
    o.filter_bits_per_entry = c.bits_per_entry;
    o.buffer_entries = 64;
    o.entries_per_page = 4;
    o.background_maintenance = background;
    return o;
  }

  void Run(uint64_t seed) {
    std::vector<Entry> load;
    for (Key k = 0; k < 3000; ++k) {
      load.push_back({2 * k, 0, k, EntryType::kValue});
    }
    ASSERT_TRUE(tree.BulkLoad(load).ok());
    Rng rng(seed);
    for (int i = 0; i < 6000; ++i) {
      const Key key = 2 * rng.UniformInt(0, 4000);
      const Status s = rng.NextDouble() < 0.1
                           ? tree.Delete(key)
                           : tree.Put(key, static_cast<Value>(i));
      ASSERT_TRUE(s.ok()) << s.message();
      if (tree.options().background_maintenance) {
        ASSERT_NO_FATAL_FAILURE(RunUnitsByHand(&tree));
      }
    }
  }

  Statistics stats;
  MemPageStore store;
  LsmTree tree;
};

TEST_P(MaintenanceProtocolEquivalenceTest,
       ForegroundTreeMatchesDrainedBackgroundTree) {
  // The writer's own drain and the scheduler's units are one protocol:
  // the same writes leave the same levels, filters and page I/O.
  EquivalenceTree fg(GetParam(), /*background=*/false);
  EquivalenceTree bg(GetParam(), /*background=*/true);
  ASSERT_NO_FATAL_FAILURE(fg.Run(GetParam().seed));
  ASSERT_NO_FATAL_FAILURE(bg.Run(GetParam().seed));
  const std::vector<LevelInfo> fg_levels = fg.tree.GetLevelInfos();
  const std::vector<LevelInfo> bg_levels = bg.tree.GetLevelInfos();
  ASSERT_EQ(fg_levels.size(), bg_levels.size());
  for (size_t i = 0; i < fg_levels.size(); ++i) {
    SCOPED_TRACE("level " + std::to_string(fg_levels[i].level));
    EXPECT_EQ(fg_levels[i].num_runs, bg_levels[i].num_runs);
    EXPECT_EQ(fg_levels[i].num_entries, bg_levels[i].num_entries);
    EXPECT_EQ(fg_levels[i].min_key, bg_levels[i].min_key);
    EXPECT_EQ(fg_levels[i].max_key, bg_levels[i].max_key);
    EXPECT_EQ(fg_levels[i].filter_bits_per_entry,
              bg_levels[i].filter_bits_per_entry);
  }
  EXPECT_EQ(fg.stats.pages_written.load(), bg.stats.pages_written.load());
  EXPECT_EQ(fg.stats.compaction_pages_read.load(),
            bg.stats.compaction_pages_read.load());
  EXPECT_EQ(fg.stats.flushes.load(), bg.stats.flushes.load());
  EXPECT_EQ(fg.stats.compactions.load(), bg.stats.compactions.load());
}

INSTANTIATE_TEST_SUITE_P(Tunings, MaintenanceProtocolEquivalenceTest,
                         ::testing::ValuesIn(AllEquivalenceCases()),
                         CaseName);

// ------------------------------------------------- starvation regression --

TEST(CompactionSchedulerStarvationTest,
     BackoffOnOneShardDoesNotStarveOthers) {
  // One worker, two shards. Shard A's flush fails persistently and backs
  // off; with the deadline queue the worker is free during the backoff,
  // so shard B's flush drains immediately. (The old implementation slept
  // the backoff ON the worker, wedging every other shard behind it.)
  ScopedFaultInjector inject;
  Options o;
  o.size_ratio = 4;
  o.buffer_entries = 64;
  o.entries_per_page = 4;
  o.num_shards = 2;
  o.background_maintenance = true;
  o.maintenance_threads = 1;
  o.background_retry_base_ms = 500;  // parked well past the assert window
  o.background_max_retries = 50;
  o.backend = StorageBackend::kFile;
  o.storage_dir = "/tmp/endure_sched_starvation_test";
  std::filesystem::remove_all(o.storage_dir);
  auto db = std::move(ShardedDB::Open(o)).value();

  // Keys for each shard.
  std::vector<Key> a_keys, b_keys;
  for (Key k = 0; a_keys.size() < 200 || b_keys.size() < 200; k += 2) {
    (db->ShardForKey(k) == 0 ? a_keys : b_keys).push_back(k);
  }

  // Fill shard A with segment writes failing: its flush retries and
  // parks on the 500ms deadline.
  inject->Arm(FaultSite::kSegmentWrite,
              {0, UINT64_MAX, EIO, false, false});
  for (size_t i = 0; i < 100; ++i) ASSERT_TRUE(db->Put(a_keys[i], 1).ok());
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (db->ShardStats(0).io_retries.load() == 0 &&
         Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(db->ShardStats(0).io_retries.load(), 1u);

  // Fault clears; shard B fills. Its flush must drain promptly — the
  // worker is NOT sleeping out shard A's backoff.
  inject->Disarm(FaultSite::kSegmentWrite);
  const auto start = Clock::now();
  for (size_t i = 0; i < 100; ++i) ASSERT_TRUE(db->Put(b_keys[i], 1).ok());
  while (db->ShardStats(1).flushes.load() == 0 &&
         MsSince(start) < 10000) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(db->ShardStats(1).flushes.load(), 1u);
  EXPECT_LT(MsSince(start), 450u)
      << "shard B waited out shard A's backoff";

  db->WaitForMaintenance();
  EXPECT_GE(db->TotalStats().sched_requeues.load(), 1u);
  EXPECT_TRUE(db->Health().ok());
  for (size_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(db->Get(a_keys[i]).has_value()) << i;
    ASSERT_TRUE(db->Get(b_keys[i]).has_value()) << i;
  }
}

}  // namespace
}  // namespace endure::lsm
