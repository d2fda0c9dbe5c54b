// ShardedDB: sharding semantics, background-maintenance state machine,
// and concurrency stress — multi-threaded writers and readers with
// maintenance jobs interleaved, asserting linearizable point reads (a key
// is never lost once its Put has been acknowledged) and clean shutdown
// with jobs in flight. Run under ThreadSanitizer in CI's tsan leg.

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "lsm/sharded_db.h"
#include "util/fault_injection.h"
#include "util/random.h"

namespace endure::lsm {
namespace {

Options ShardOpts(int num_shards, bool background = true,
                  StorageBackend backend = StorageBackend::kMemory) {
  Options o;
  o.size_ratio = 4;
  o.buffer_entries = 256;
  o.entries_per_page = 4;
  o.filter_bits_per_entry = 8.0;
  o.num_shards = num_shards;
  o.background_maintenance = background;
  o.backend = backend;
  o.storage_dir = "/tmp/endure_sharded_db_test";
  return o;
}

TEST(ShardedDbTest, OptionsValidation) {
  Options o = ShardOpts(0);
  EXPECT_FALSE(o.Validate().ok());
  EXPECT_FALSE(ShardedDB::Open(o).ok());
  o.num_shards = 5000;
  EXPECT_FALSE(o.Validate().ok());
  o.num_shards = 8;
  EXPECT_TRUE(o.Validate().ok());
}

TEST(ShardedDbTest, ShardRoutingIsDeterministicAndCoversAllShards) {
  auto db = std::move(ShardedDB::Open(ShardOpts(8))).value();
  std::vector<uint64_t> hits(8, 0);
  for (Key k = 0; k < 4096; ++k) {
    const size_t s = db->ShardForKey(2 * k);
    ASSERT_LT(s, 8u);
    ASSERT_EQ(s, db->ShardForKey(2 * k));  // stable
    ++hits[s];
  }
  // Dense even keys must spread: no shard empty, none hoarding.
  for (uint64_t h : hits) {
    EXPECT_GT(h, 4096u / 8 / 4);
    EXPECT_LT(h, 4096u / 8 * 4);
  }
}

TEST(ShardedDbTest, SingleThreadedSemanticsAcrossShards) {
  auto db = std::move(ShardedDB::Open(ShardOpts(4))).value();
  for (Key k = 0; k < 2000; ++k) db->Put(k, k + 7);
  for (Key k = 0; k < 2000; k += 3) db->Delete(k);
  db->WaitForMaintenance();
  for (Key k = 0; k < 2000; ++k) {
    const auto got = db->Get(k);
    if (k % 3 == 0) {
      EXPECT_FALSE(got.has_value()) << k;
    } else {
      ASSERT_TRUE(got.has_value()) << k;
      EXPECT_EQ(*got, k + 7);
    }
  }
}

TEST(ShardedDbTest, ScanMergesShardsInKeyOrder) {
  auto db = std::move(ShardedDB::Open(ShardOpts(4))).value();
  for (Key k = 0; k < 3000; ++k) db->Put(k, 2 * k);
  const std::vector<Entry> out = db->Scan(500, 1500).value();
  ASSERT_EQ(out.size(), 1000u);
  for (size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i].key, 500 + i);  // ordered, no gaps, no duplicates
    ASSERT_EQ(out[i].value, 2 * out[i].key);
  }
}

TEST(ShardedDbTest, BackgroundMaintenanceActuallyFlushes) {
  auto db = std::move(ShardedDB::Open(ShardOpts(2))).value();
  const Options& o = db->options();
  for (Key k = 0; k < 40 * o.buffer_entries; ++k) db->Put(k, k);
  db->WaitForMaintenance();
  const Statistics total = db->TotalStats();
  EXPECT_GT(total.flushes, 0u);
  EXPECT_GT(total.flush_pages_written, 0u);
  // The trees really grew runs (writes didn't pile up in memtables).
  uint64_t runs = 0;
  for (size_t s = 0; s < db->num_shards(); ++s) {
    for (const LevelInfo& info : db->shard_tree(s).GetLevelInfos()) {
      runs += info.num_runs;
    }
  }
  EXPECT_GT(runs, 0u);
}

TEST(ShardedDbTest, BulkLoadRoutesAndServes) {
  auto db = std::move(ShardedDB::Open(ShardOpts(4, false))).value();
  std::vector<std::pair<Key, Value>> pairs;
  for (uint64_t i = 0; i < 5000; ++i) pairs.emplace_back(2 * i, i);
  ASSERT_TRUE(db->BulkLoad(pairs).ok());
  EXPECT_EQ(db->TotalEntries(), 5000u);
  Rng rng(9);
  for (int i = 0; i < 500; ++i) {
    const uint64_t v = rng.UniformInt(0, 4999);
    const auto got = db->Get(2 * v);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, v);
    EXPECT_FALSE(db->Get(2 * v + 1).has_value());
  }
  EXPECT_FALSE(db->BulkLoad(pairs).ok());  // non-empty now
}

TEST(ShardedDbTest, NonAscendingBulkLoadIsRefusedBeforeAnyShardLoads) {
  // Each shard's worker picks its own keys out of the input, so the order
  // check must finish before any of them starts: an input that turns back
  // once, or repeats a key once, near its end loads no shard at all.
  auto db = std::move(ShardedDB::Open(ShardOpts(4, false))).value();
  std::vector<std::pair<Key, Value>> ascending;
  for (uint64_t i = 0; i < 4000; ++i) ascending.emplace_back(2 * i, i);
  std::vector<std::pair<Key, Value>> turns_back = ascending;
  std::swap(turns_back[3997], turns_back[3998]);
  std::vector<std::pair<Key, Value>> repeats = ascending;
  repeats[3999].first = repeats[3998].first;
  for (const auto* bad : {&turns_back, &repeats}) {
    const Status st = db->BulkLoad(*bad);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.message();
    for (size_t s = 0; s < db->num_shards(); ++s) {
      EXPECT_EQ(db->shard_tree(s).TotalEntries(), 0u) << "shard " << s;
    }
  }
  // Nothing was half-loaded: the ascending input still loads whole.
  ASSERT_TRUE(db->BulkLoad(ascending).ok());
  EXPECT_EQ(db->TotalEntries(), 4000u);
  EXPECT_EQ(db->Get(2 * 3999).value_or(0), 3999u);
}

TEST(ShardedDbFaultInjectionTest, FailedBulkLoadLeavesEachShardFullOrEmpty) {
  // Shards load concurrently, so which shard's writes the fault schedule
  // reaches first depends on the workers' interleaving. Whatever it is,
  // every shard ends fully loaded or empty, and the error returned is
  // the lowest-numbered failing shard's (its segment path names it).
  const std::string dir = "/tmp/endure_sharded_db_bulk_fault";
  std::vector<std::pair<Key, Value>> pairs;
  for (uint64_t i = 0; i < 4000; ++i) pairs.emplace_back(2 * i, i);
  for (const uint64_t skip : {0, 100, 400}) {
    SCOPED_TRACE(skip);
    std::filesystem::remove_all(dir);
    Options o = ShardOpts(4, false, StorageBackend::kFile);
    o.storage_dir = dir;
    o.durability = true;
    auto db = std::move(ShardedDB::Open(o)).value();
    std::vector<uint64_t> expected(4, 0);
    for (const auto& [key, value] : pairs) ++expected[db->ShardForKey(key)];

    Status st;
    {
      ScopedFaultInjector fi;
      fi->Arm(FaultSite::kSegmentWrite,
              {.skip = skip, .count = UINT64_MAX, .err = EIO});
      st = db->BulkLoad(pairs);
    }
    ASSERT_FALSE(st.ok());
    int lowest_failed = -1;
    for (size_t s = 0; s < 4; ++s) {
      const uint64_t n = db->shard_tree(s).TotalEntries();
      EXPECT_TRUE(n == 0 || n == expected[s])
          << "shard " << s << " holds " << n << " of " << expected[s];
      if (n == 0 && lowest_failed < 0) lowest_failed = static_cast<int>(s);
    }
    ASSERT_GE(lowest_failed, 0);
    EXPECT_NE(st.message().find("/shard_" + std::to_string(lowest_failed) +
                                "/seg_"),
              std::string::npos)
        << st.message();
    for (const auto& [key, value] : pairs) {
      if (db->shard_tree(db->ShardForKey(key)).TotalEntries() == 0) continue;
      ASSERT_EQ(db->Get(key).value_or(~Value{0}), value) << key;
    }
  }
}

// --- concurrency stress ----------------------------------------------------

/// Writers append per-writer key sequences and publish an acknowledged
/// watermark; readers pick random writers and verify every key at or
/// below the watermark is present with the right value. A key read after
/// its Put ack must never be lost, whatever maintenance is doing.
TEST(ShardedDbStressTest, AckedWritesAreNeverLost) {
  constexpr int kWriters = 4;
  constexpr int kReaders = 2;
  constexpr uint64_t kPerWriter = 8000;
  auto db = std::move(ShardedDB::Open(ShardOpts(4))).value();

  std::atomic<int64_t> watermark[kWriters];
  for (auto& w : watermark) w.store(-1);
  auto key_of = [](int writer, uint64_t i) {
    return static_cast<Key>(i) * kWriters + writer;
  };

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        db->Put(key_of(w, i), i);
        // Release pairs with the readers' acquire: the Put (and its
        // shard-mutex critical section) happens-before any read of i.
        watermark[w].store(static_cast<int64_t>(i),
                           std::memory_order_release);
      }
    });
  }
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> verified{0};
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      Rng rng(100 + r);
      while (!stop.load(std::memory_order_relaxed)) {
        const int w = static_cast<int>(rng.UniformInt(0, kWriters - 1));
        const int64_t high = watermark[w].load(std::memory_order_acquire);
        if (high < 0) continue;
        const uint64_t i = rng.UniformInt(0, static_cast<uint64_t>(high));
        const auto got = db->Get(key_of(w, i));
        ASSERT_TRUE(got.has_value())
            << "acked key lost: writer " << w << " index " << i;
        ASSERT_EQ(*got, i);
        verified.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  stop.store(true);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();
  EXPECT_GT(verified.load(), 0u);

  // Quiesce and verify the full history end-to-end.
  db->WaitForMaintenance();
  for (int w = 0; w < kWriters; ++w) {
    for (uint64_t i = 0; i < kPerWriter; i += 97) {
      const auto got = db->Get(key_of(w, i));
      ASSERT_TRUE(got.has_value()) << "writer " << w << " index " << i;
      EXPECT_EQ(*got, i);
    }
  }
  EXPECT_EQ(db->TotalEntries(), kWriters * kPerWriter);
}

TEST(ShardedDbStressTest, ConcurrentScansSeeConsistentPrefixes) {
  // One writer fills keys in ascending order while scanners watch: every
  // scan result must be sorted, duplicate-free and value-consistent.
  auto db = std::move(ShardedDB::Open(ShardOpts(4))).value();
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (Key k = 0; k < 20000; ++k) db->Put(k, k + 1);
    done.store(true);
  });
  std::thread scanner([&] {
    Rng rng(7);
    while (!done.load(std::memory_order_relaxed)) {
      const Key lo = rng.UniformInt(0, 15000);
      const std::vector<Entry> out = db->Scan(lo, lo + 256).value();
      for (size_t i = 0; i < out.size(); ++i) {
        ASSERT_GE(out[i].key, lo);
        ASSERT_LT(out[i].key, lo + 256);
        ASSERT_EQ(out[i].value, out[i].key + 1);
        if (i > 0) ASSERT_GT(out[i].key, out[i - 1].key);
      }
    }
  });
  writer.join();
  scanner.join();
  const std::vector<Entry> all = db->Scan(0, 20000).value();
  EXPECT_EQ(all.size(), 20000u);
}

/// Live reconfiguration under fire: writers publish acked-write
/// watermarks and readers verify them while the main thread applies a
/// sequence of tunings (policy flips, size-ratio and buffer changes) to
/// the serving database. No acked write may ever disappear, scans stay
/// sorted, and after quiescing the structure must conform to the last
/// tuning with every entry intact.
TEST(ShardedDbStressTest, ApplyTuningUnderConcurrentTraffic) {
  constexpr int kWriters = 3;
  constexpr int kReaders = 2;
  constexpr uint64_t kPerWriter = 6000;
  const Options base = ShardOpts(4);
  auto db = std::move(ShardedDB::Open(base)).value();

  std::vector<Options> presets;
  {
    Options a = base;
    a.policy = CompactionPolicy::kTiering;
    a.size_ratio = 2;
    a.buffer_entries = 128;
    presets.push_back(a);
    Options b = base;
    b.policy = CompactionPolicy::kLazyLeveling;
    b.size_ratio = 8;
    b.filter_bits_per_entry = 4.0;
    presets.push_back(b);
    Options c = base;
    c.size_ratio = 3;
    c.buffer_entries = 512;
    presets.push_back(c);
  }

  std::atomic<int64_t> watermark[kWriters];
  for (auto& w : watermark) w.store(-1);
  auto key_of = [](int writer, uint64_t i) {
    return static_cast<Key>(i) * kWriters + writer;
  };

  std::vector<std::thread> threads;
  std::atomic<bool> stop{false};
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        db->Put(key_of(w, i), i);
        watermark[w].store(static_cast<int64_t>(i),
                           std::memory_order_release);
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      Rng rng(300 + r);
      while (!stop.load(std::memory_order_relaxed)) {
        const int w = static_cast<int>(rng.UniformInt(0, kWriters - 1));
        const int64_t high = watermark[w].load(std::memory_order_acquire);
        if (high < 0) continue;
        const uint64_t i = rng.UniformInt(0, static_cast<uint64_t>(high));
        const auto got = db->Get(key_of(w, i));
        ASSERT_TRUE(got.has_value())
            << "acked key lost across retuning: writer " << w << " index "
            << i;
        ASSERT_EQ(*got, i);
      }
    });
  }

  // Retune the serving system while the traffic runs: one apply per
  // preset, spread across the writers' lifetime.
  for (const Options& preset : presets) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(db->ApplyTuning(preset).ok());
  }

  for (int w = 0; w < kWriters; ++w) threads[w].join();
  stop.store(true);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  // Quiesce: the migration chain must converge to the last tuning.
  db->WaitForMaintenance();
  const MigrationProgress progress = db->Progress();
  EXPECT_TRUE(progress.structure_conforming());
  EXPECT_EQ(progress.epoch, presets.size());
  EXPECT_EQ(db->TotalStats().reconfigurations,
            presets.size() * db->num_shards());

  // Full-history check under the final tuning.
  for (int w = 0; w < kWriters; ++w) {
    for (uint64_t i = 0; i < kPerWriter; ++i) {
      const auto got = db->Get(key_of(w, i));
      ASSERT_TRUE(got.has_value()) << "writer " << w << " index " << i;
      ASSERT_EQ(*got, i);
    }
  }
  EXPECT_EQ(db->TotalEntries(), kWriters * kPerWriter);
}

TEST(ShardedDbStressTest, CleanShutdownWithJobsInFlight) {
  // Destroy the DB the instant the writers stop: queued maintenance jobs
  // must drain (not crash, not deadlock) during destruction.
  for (int round = 0; round < 3; ++round) {
    auto db = std::move(ShardedDB::Open(ShardOpts(8))).value();
    std::vector<std::thread> writers;
    for (int w = 0; w < 4; ++w) {
      writers.emplace_back([&, w] {
        for (uint64_t i = 0; i < 4000; ++i) {
          db->Put(static_cast<Key>(i) * 4 + w, i);
        }
      });
    }
    for (auto& t : writers) t.join();
    db.reset();  // jobs may still be queued here
  }
}

TEST(ShardedDbStressTest, MixedReadWriteDeleteUnderMaintenance) {
  auto db = std::move(ShardedDB::Open(ShardOpts(4))).value();
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(500 + t);
      // Per-thread key stripe: deletes only chase the thread's own puts,
      // so every Get outcome is locally predictable.
      for (uint64_t i = 0; i < 6000; ++i) {
        const Key k = static_cast<Key>(rng.UniformInt(0, 2000)) * kThreads +
                      static_cast<Key>(t);
        const double r = rng.NextDouble();
        if (r < 0.5) {
          db->Put(k, k);
        } else if (r < 0.6) {
          db->Delete(k);
        } else if (r < 0.9) {
          const auto got = db->Get(k);
          if (got.has_value()) ASSERT_EQ(*got, k);
        } else {
          // Materialize before iterating: ranging over `.value()` of the
          // temporary StatusOr would dangle (the temporary dies before
          // the loop body).
          const std::vector<Entry> scanned = db->Scan(k, k + 32).value();
          for (const Entry& e : scanned) {
            ASSERT_EQ(e.value, e.key);
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  db->WaitForMaintenance();
  db->Flush();
  // After quiescing, aggregate op counters reflect every call.
  EXPECT_EQ(db->TotalStats().writes,
            [&] {
              uint64_t w = 0;
              for (size_t s = 0; s < db->num_shards(); ++s) {
                w += db->ShardStats(s).writes;
              }
              return w;
            }());
}

}  // namespace
}  // namespace endure::lsm
