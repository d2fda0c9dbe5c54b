// Shared WAL-flush-service stress (docs/durability.md): one
// WalFlushService thread drives every shard's background fsyncs while
// writer threads group-commit across shards and foreground Flushes keep
// WAL rotations (appender file swaps under the service's feet) and
// manifest publications permanently in flight. Run under ThreadSanitizer
// in CI; the assertions double as an acked-write-loss check across a
// final kill+reopen.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "lsm/sharded_db.h"
#include "util/env.h"

namespace endure::lsm {
namespace {

TEST(SharedFlusherStressTest, ConcurrentPutBatchWithCheckpointsInFlight) {
  const std::string dir = "/tmp/endure_flush_service_stress";
  std::filesystem::remove_all(dir);

  Options o;
  o.size_ratio = 4;
  o.buffer_entries = 128;  // small buffer: flushes (rotations) constantly
  o.entries_per_page = 4;
  o.backend = StorageBackend::kFile;
  o.storage_dir = dir;
  o.num_shards = 4;
  o.background_maintenance = true;
  o.durability = true;
  o.wal_sync_mode = WalSyncMode::kBackground;
  o.wal_sync_interval_ms = 1;  // the service ticks as hard as it can

  const int kWriters = 4;
  const int kBatches = 40;
  const int kBatchSize = 32;
  {
    auto db_or = ShardedDB::Open(o);
    ASSERT_TRUE(db_or.ok());
    ShardedDB* db = db_or.value().get();

    std::vector<std::thread> threads;
    for (int t = 0; t < kWriters; ++t) {
      threads.emplace_back([db, t] {
        const Key base = static_cast<Key>(t) * 1'000'000;
        std::vector<std::pair<Key, Value>> batch;
        for (int b = 0; b < kBatches; ++b) {
          batch.clear();
          for (int i = 0; i < kBatchSize; ++i) {
            const Key k = base + static_cast<Key>(b) * kBatchSize + i;
            batch.emplace_back(k, k + 1);
          }
          db->PutBatch(batch);
        }
      });
    }
    // Checkpoints in flight: foreground Flush rewrites every shard's WAL
    // (swapping the fds the flush service is syncing) while the writers
    // commit — plus stats readers, the other concurrent consumer.
    threads.emplace_back([db] {
      for (int i = 0; i < 30; ++i) {
        db->Flush();
        (void)db->TotalStats().wal_syncs.load();
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
    for (auto& t : threads) t.join();
    db->WaitForMaintenance();

    // Every acknowledged write is visible...
    for (int t = 0; t < kWriters; ++t) {
      const Key base = static_cast<Key>(t) * 1'000'000;
      for (int i = 0; i < kBatches * kBatchSize; ++i) {
        const Key k = base + i;
        ASSERT_EQ(db->Get(k).value_or(0), k + 1) << "lost key " << k;
      }
    }
    db->CrashForTesting();
  }
  // ...and still there after a kill+reopen (committed write()s survive a
  // process death; the service-synced WAL plus manifests cover them).
  auto db = ShardedDB::Open(o);
  ASSERT_TRUE(db.ok());
  for (int t = 0; t < kWriters; ++t) {
    const Key base = static_cast<Key>(t) * 1'000'000;
    for (int i = 0; i < kBatches * kBatchSize; ++i) {
      const Key k = base + i;
      ASSERT_EQ(db.value()->Get(k).value_or(0), k + 1)
          << "key " << k << " lost across reopen";
    }
  }
}

}  // namespace
}  // namespace endure::lsm
