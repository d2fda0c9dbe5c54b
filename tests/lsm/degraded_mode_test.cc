// Graceful degradation under storage faults: transient background I/O
// errors are retried with exponential backoff (Statistics::io_retries);
// a fault that outlives Options::background_max_retries — or any
// foreground write-path failure — latches the affected shard read-only
// (writes rejected with the latched status, reads keep serving), and a
// reopen after the fault clears recovers every acknowledged write.

#include <gtest/gtest.h>

#include <cerrno>
#include <filesystem>
#include <string>

#include "lsm/sharded_db.h"
#include "util/env.h"
#include "util/fault_injection.h"
#include "util/status.h"

namespace endure::lsm {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = "/tmp/endure_degraded_mode_test_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

Options BaseOpts(const std::string& dir) {
  Options o;
  o.size_ratio = 4;
  o.buffer_entries = 32;
  o.entries_per_page = 4;
  o.filter_bits_per_entry = 6.0;
  o.backend = StorageBackend::kFile;
  o.storage_dir = dir;
  o.durability = true;
  o.wal_sync_mode = WalSyncMode::kPerBatch;
  return o;
}

TEST(DegradedModeTest, TransientFaultIsRetriedThenForgotten) {
  const std::string dir = FreshDir("transient");
  Options opts = BaseOpts(dir);
  opts.num_shards = 1;
  opts.background_maintenance = true;
  opts.background_max_retries = 4;
  opts.background_retry_base_ms = 1;
  auto db = ShardedDB::Open(opts);
  ASSERT_TRUE(db.ok());

  ScopedFaultInjector fi;
  // The first two segment-file creations fail with EIO, then the disk
  // "recovers" — comfortably inside the 4-attempt retry budget. The
  // workload seals exactly one buffer (buffer_entries = 32, 40 puts), so
  // only the background job ever meets the fault: foreground writes are
  // never failed by a transient background error.
  fi->Arm(FaultSite::kSegmentOpen, {.count = 2, .err = EIO});
  for (Key k = 0; k < 40; ++k) {
    ASSERT_TRUE((*db)->Put(k, k + 1).ok()) << k;
  }
  (*db)->WaitForMaintenance();
  fi->DisarmAll();

  EXPECT_TRUE((*db)->Health().ok()) << (*db)->Health().message();
  EXPECT_GE((*db)->TotalStats().io_retries.load(), 1u);
  EXPECT_EQ((*db)->TotalStats().read_only_transitions.load(), 0u);
  for (Key k = 0; k < 40; ++k) {
    ASSERT_EQ((*db)->Get(k).value_or(0), k + 1) << k;
  }
  // The tree is healthy: writes keep flowing after the fault cleared.
  ASSERT_TRUE((*db)->Put(1000, 7).ok());
}

TEST(DegradedModeTest, PermanentFaultLatchesShardReadOnly) {
  const std::string dir = FreshDir("permanent");
  Options opts = BaseOpts(dir);
  opts.num_shards = 1;
  opts.background_maintenance = true;
  opts.background_max_retries = 2;
  opts.background_retry_base_ms = 1;
  auto db = ShardedDB::Open(opts);
  ASSERT_TRUE(db.ok());

  ScopedFaultInjector fi;
  fi->Arm(FaultSite::kSegmentOpen, {.count = UINT64_MAX, .err = EIO});
  // Writes are acknowledged into the memtable/WAL until the retry budget
  // is exhausted and the shard latches; after that they are rejected.
  Key acked_until = 0;
  for (Key k = 0; k < 500; ++k) {
    if (!(*db)->Put(k, k + 1).ok()) break;
    acked_until = k + 1;
  }
  (*db)->WaitForMaintenance();

  const Status health = (*db)->Health();
  ASSERT_FALSE(health.ok());
  EXPECT_EQ(health.code(), StatusCode::kIOError);
  EXPECT_NE(health.message().find("shard 0"), std::string::npos)
      << health.message();
  EXPECT_GE((*db)->TotalStats().read_only_transitions.load(), 1u);
  EXPECT_GE((*db)->TotalStats().io_retries.load(), 1u);

  // Degraded, not dead: writes are refused, reads keep serving every
  // acknowledged entry.
  EXPECT_FALSE((*db)->Put(9999, 1).ok());
  for (Key k = 0; k < acked_until; ++k) {
    ASSERT_EQ((*db)->Get(k).value_or(0), k + 1) << k;
  }

  // The fault clears; reopening the deployment recovers cleanly (the
  // latch is not persistent state — it describes the dead device).
  fi->DisarmAll();
  db->reset();
  auto reopened = ShardedDB::Open(opts);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_TRUE((*reopened)->Health().ok());
  for (Key k = 0; k < acked_until; ++k) {
    ASSERT_EQ((*reopened)->Get(k).value_or(0), k + 1) << k;
  }
  ASSERT_TRUE((*reopened)->Put(9999, 1).ok());
}

TEST(DegradedModeTest, ForegroundWriteFailureLatchesReadOnly) {
  const std::string dir = FreshDir("foreground");
  Options opts = BaseOpts(dir);  // no background maintenance: inline flush
  auto db = ShardedDB::Open(opts);
  ASSERT_TRUE(db.ok());

  ScopedFaultInjector fi;
  fi->Arm(FaultSite::kSegmentWrite, {.count = UINT64_MAX, .err = ENOSPC});
  Key acked_until = 0;
  Status first_error;
  for (Key k = 0; k < 200; ++k) {
    const Status s = (*db)->Put(k, k + 1);
    if (!s.ok()) {
      first_error = s;
      break;
    }
    acked_until = k + 1;
  }
  ASSERT_FALSE(first_error.ok()) << "the inline flush never hit the fault";
  EXPECT_NE(first_error.message().find("injected"), std::string::npos)
      << first_error.message();

  // Latched: the same status comes back without touching storage again.
  const uint64_t fired_before = fi->fired(FaultSite::kSegmentWrite);
  EXPECT_FALSE((*db)->Put(0, 1).ok());
  EXPECT_EQ(fi->fired(FaultSite::kSegmentWrite), fired_before);
  EXPECT_FALSE((*db)->Health().ok());
  EXPECT_GE((*db)->TotalStats().read_only_transitions.load(), 1u);
  for (Key k = 0; k < acked_until; ++k) {
    ASSERT_EQ((*db)->Get(k).value_or(0), k + 1) << k;
  }

  fi->DisarmAll();
  db->reset();
  auto reopened = ShardedDB::Open(opts);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  for (Key k = 0; k < acked_until; ++k) {
    ASSERT_EQ((*reopened)->Get(k).value_or(0), k + 1) << k;
  }
}

TEST(DegradedModeTest, ExplicitFlushDoesNotLatchAndMayBeRetried) {
  const std::string dir = FreshDir("flush_retry");
  Options opts = BaseOpts(dir);
  auto db = ShardedDB::Open(opts);
  ASSERT_TRUE(db.ok());
  for (Key k = 0; k < 10; ++k) {
    ASSERT_TRUE((*db)->Put(k, k + 1).ok());
  }

  {
    ScopedFaultInjector fi;
    fi->Arm(FaultSite::kSegmentWrite, {.count = 1, .err = EIO});
    EXPECT_FALSE((*db)->Flush().ok());
  }
  // An explicit Flush is a retryable operator action: its failure does
  // not poison the tree, and the retry drains the same buffers.
  EXPECT_TRUE((*db)->Health().ok());
  ASSERT_TRUE((*db)->Flush().ok());
  for (Key k = 0; k < 10; ++k) {
    ASSERT_EQ((*db)->Get(k).value_or(0), k + 1) << k;
  }
}

TEST(DegradedModeTest, HealthyShardsKeepServingNextToADegradedOne) {
  const std::string dir = FreshDir("isolation");
  Options opts = BaseOpts(dir);
  opts.num_shards = 4;
  opts.background_maintenance = false;  // deterministic shard targeting
  opts.durability = false;  // volatile: we only test shard isolation here
  opts.backend = StorageBackend::kFile;
  auto db = ShardedDB::Open(opts);
  ASSERT_TRUE(db.ok());

  // Find two keys on different shards and fill only one shard's buffer
  // while a permanent write fault is armed: the inline flush latches that
  // shard alone.
  const size_t victim_shard = (*db)->ShardForKey(0);
  ScopedFaultInjector fi;
  fi->Arm(FaultSite::kSegmentWrite, {.count = UINT64_MAX, .err = EIO});
  Key k = 0;
  bool latched = false;
  for (Key i = 0; i < 10000 && !latched; ++i) {
    if ((*db)->ShardForKey(i) != victim_shard) continue;
    latched = !(*db)->Put(i, i + 1).ok();
    k = i;
  }
  ASSERT_TRUE(latched) << "victim shard never flushed";
  fi->DisarmAll();
  (void)k;

  EXPECT_FALSE((*db)->Health().ok());
  // Every other shard still accepts writes and serves reads.
  size_t healthy_writes = 0;
  for (Key i = 0; i < 100; ++i) {
    if ((*db)->ShardForKey(i) == victim_shard) continue;
    ASSERT_TRUE((*db)->Put(i, i + 42).ok()) << i;
    ASSERT_EQ((*db)->Get(i).value_or(0), i + 42) << i;
    ++healthy_writes;
  }
  EXPECT_GT(healthy_writes, 0u);
}

}  // namespace
}  // namespace endure::lsm
