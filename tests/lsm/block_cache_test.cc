// Unit tests for the shared block cache and the memory-arbitration
// policy: lookup/admission/eviction semantics, segment erasure, live
// capacity retargeting, a seeded trace that pins the clock's victims, a
// concurrent admit/lookup/erase run, room-only admission (alone and
// racing evicting inserts), the file backend's read-ahead policy (a long
// scan evicts at most one page per extent, yet warms a cache with room),
// the pure ArbitrateMemory split, and the engine-level knobs (Options
// validation, enable-after-open rule, arbiter-driven buffer retargeting).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <optional>
#include <thread>
#include <vector>

#include "lsm/block_cache.h"
#include "lsm/sharded_db.h"
#include "lsm/statistics.h"
#include "util/random.h"

namespace endure::lsm {
namespace {

std::vector<Entry> MakePage(Key base, size_t count) {
  std::vector<Entry> page;
  page.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    page.push_back(Entry{base + i, /*seq=*/1, base + i + 100,
                         EntryType::kValue});
  }
  return page;
}

TEST(BlockCacheTest, LookupMissThenHitCopiesOut) {
  BlockCache cache(/*capacity_bytes=*/1 << 20);
  const uint64_t store = cache.RegisterStore();
  PageBuffer buf;
  EXPECT_FALSE(cache.Lookup(store, /*segment=*/7, /*page_idx=*/0, &buf));

  const std::vector<Entry> page = MakePage(10, 4);
  cache.Insert(store, 7, 0, page.data(), page.size(), nullptr);
  ASSERT_TRUE(cache.Lookup(store, 7, 0, &buf));
  ASSERT_EQ(buf.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(buf[i].key, page[i].key);
    EXPECT_EQ(buf[i].value, page[i].value);
  }
  EXPECT_EQ(cache.usage(), 4 * sizeof(Entry));
}

TEST(BlockCacheTest, StoresAreIsolatedBySegmentKey) {
  // Two stores may reuse the same SegmentId; the registered store id
  // keeps their pages apart.
  BlockCache cache(1 << 20);
  const uint64_t a = cache.RegisterStore();
  const uint64_t b = cache.RegisterStore();
  ASSERT_NE(a, b);
  const std::vector<Entry> page_a = MakePage(0, 2);
  const std::vector<Entry> page_b = MakePage(50, 3);
  cache.Insert(a, /*segment=*/1, /*page_idx=*/0, page_a.data(), 2, nullptr);
  cache.Insert(b, /*segment=*/1, /*page_idx=*/0, page_b.data(), 3, nullptr);
  PageBuffer buf;
  ASSERT_TRUE(cache.Lookup(a, 1, 0, &buf));
  EXPECT_EQ(buf.size(), 2u);
  ASSERT_TRUE(cache.Lookup(b, 1, 0, &buf));
  EXPECT_EQ(buf.size(), 3u);
}

TEST(BlockCacheTest, EraseSegmentDropsAllItsPages) {
  BlockCache cache(1 << 20);
  const uint64_t store = cache.RegisterStore();
  const std::vector<Entry> page = MakePage(0, 4);
  for (uint64_t p = 0; p < 8; ++p) {
    cache.Insert(store, /*segment=*/3, p, page.data(), 4, nullptr);
    cache.Insert(store, /*segment=*/4, p, page.data(), 4, nullptr);
  }
  cache.EraseSegment(store, 3);
  PageBuffer buf;
  for (uint64_t p = 0; p < 8; ++p) {
    EXPECT_FALSE(cache.Lookup(store, 3, p, &buf));
    EXPECT_TRUE(cache.Lookup(store, 4, p, &buf));
  }
  EXPECT_EQ(cache.usage(), 8 * 4 * sizeof(Entry));
}

TEST(BlockCacheTest, EraseSegmentReachesEveryCacheShard) {
  // 64 pages per segment hash across all 16 cache shards: the erase must
  // find the segment's pages in each of them, and touch nothing else —
  // not the other segment, not the same segment id of another store.
  BlockCache cache(1 << 22, /*num_shards=*/16);
  const uint64_t store = cache.RegisterStore();
  const uint64_t other_store = cache.RegisterStore();
  const std::vector<Entry> page = MakePage(0, 4);
  for (uint64_t p = 0; p < 64; ++p) {
    cache.Insert(store, /*segment=*/3, p, page.data(), 4, nullptr);
    cache.Insert(store, /*segment=*/4, p, page.data(), 4, nullptr);
    cache.Insert(other_store, /*segment=*/3, p, page.data(), 4, nullptr);
  }
  cache.EraseSegment(store, 3);
  PageBuffer buf;
  for (uint64_t p = 0; p < 64; ++p) {
    EXPECT_FALSE(cache.Lookup(store, 3, p, &buf)) << p;
    EXPECT_TRUE(cache.Lookup(store, 4, p, &buf)) << p;
    EXPECT_TRUE(cache.Lookup(other_store, 3, p, &buf)) << p;
  }
  EXPECT_EQ(cache.usage(), 2 * 64 * 4 * sizeof(Entry));
  cache.EraseSegment(store, 3);  // idempotent
  EXPECT_EQ(cache.usage(), 2 * 64 * 4 * sizeof(Entry));
}

TEST(BlockCacheTest, EraseAfterEvictionChurnKeepsUsageExact) {
  // Evictions remove slots from their segment's list while other
  // segments keep inserting into recycled slots; an erase afterwards must
  // free exactly the segment's surviving pages.
  constexpr uint64_t kPageBytes = 4 * sizeof(Entry);
  BlockCache cache(/*capacity_bytes=*/4 * 24 * kPageBytes, /*num_shards=*/4);
  const uint64_t store = cache.RegisterStore();
  const std::vector<Entry> page = MakePage(0, 4);
  Statistics stats;
  for (uint64_t p = 0; p < 200; ++p) {
    cache.Insert(store, /*segment=*/p % 3, p, page.data(), 4, &stats);
  }
  ASSERT_GT(stats.cache_evictions.load(), 0u);
  const auto resident = [&](SegmentId segment) {
    PageBuffer buf;
    uint64_t hits = 0;
    for (uint64_t p = 0; p < 200; ++p) {
      if (p % 3 == segment && cache.Lookup(store, segment, p, &buf)) ++hits;
    }
    return hits;
  };
  const uint64_t kept = resident(0) + resident(2);
  ASSERT_GT(resident(1), 0u);
  cache.EraseSegment(store, 1);
  EXPECT_EQ(resident(1), 0u);
  EXPECT_EQ(resident(0) + resident(2), kept);
  EXPECT_EQ(cache.usage(), kept * kPageBytes);
  // The freed slots are reusable: a refill evicts and admits as usual.
  for (uint64_t p = 200; p < 260; ++p) {
    cache.Insert(store, /*segment=*/1, p, page.data(), 4, &stats);
  }
  EXPECT_LE(cache.usage(), cache.capacity());
}

TEST(BlockCacheTest, RecycledSegmentIdNeverServesStalePages) {
  BlockCache cache(1 << 20);
  const uint64_t store = cache.RegisterStore();
  const std::vector<Entry> old_page = MakePage(0, 4);
  for (uint64_t p = 0; p < 8; ++p) {
    cache.Insert(store, /*segment=*/5, p, old_page.data(), 4, nullptr);
  }
  cache.EraseSegment(store, 5);
  // The id comes back for a new, shorter segment with other contents.
  const std::vector<Entry> new_page = MakePage(500, 2);
  cache.Insert(store, 5, 0, new_page.data(), 2, nullptr);
  PageBuffer buf;
  ASSERT_TRUE(cache.Lookup(store, 5, 0, &buf));
  ASSERT_EQ(buf.size(), 2u);
  EXPECT_EQ(buf[0].key, 500u);
  for (uint64_t p = 1; p < 8; ++p) {
    EXPECT_FALSE(cache.Lookup(store, 5, p, &buf)) << p;
  }
  EXPECT_EQ(cache.usage(), 2 * sizeof(Entry));
}

TEST(BlockCacheTest, EvictsUnderCapacityPressure) {
  // Single cache shard so the clock behaviour is deterministic: capacity
  // for ~4 pages, insert 16, usage must stay bounded and evictions
  // counted.
  BlockCache cache(4 * 8 * sizeof(Entry), /*num_shards=*/1);
  const uint64_t store = cache.RegisterStore();
  Statistics stats;
  const std::vector<Entry> page = MakePage(0, 8);
  for (uint64_t p = 0; p < 16; ++p) {
    cache.Insert(store, 1, p, page.data(), 8, &stats);
  }
  EXPECT_LE(cache.usage(), 4 * 8 * sizeof(Entry));
  EXPECT_GT(stats.cache_evictions.load(), 0u);
}

TEST(BlockCacheTest, ZeroCapacityAdmitsNothing) {
  BlockCache cache(0);
  const uint64_t store = cache.RegisterStore();
  const std::vector<Entry> page = MakePage(0, 4);
  cache.Insert(store, 1, 0, page.data(), 4, nullptr);
  PageBuffer buf;
  EXPECT_FALSE(cache.Lookup(store, 1, 0, &buf));
  EXPECT_EQ(cache.usage(), 0u);
}

TEST(BlockCacheTest, SetCapacityRetargetsLive) {
  BlockCache cache(1 << 20, /*num_shards=*/1);
  const uint64_t store = cache.RegisterStore();
  const std::vector<Entry> page = MakePage(0, 8);
  for (uint64_t p = 0; p < 8; ++p) {
    cache.Insert(store, 1, p, page.data(), 8, nullptr);
  }
  const uint64_t full = cache.usage();
  ASSERT_EQ(full, 8 * 8 * sizeof(Entry));
  // Shrink to two pages: the next insert evicts down to the new bound.
  cache.set_capacity(2 * 8 * sizeof(Entry));
  cache.Insert(store, 2, 0, page.data(), 8, nullptr);
  EXPECT_LE(cache.usage(), 2 * 8 * sizeof(Entry));
}

TEST(BlockCacheTest, SeededTraceEvictsAsTheParentDid) {
  // Lookup-then-Insert over 3 stores x 8 segments x 64 pages of 1-8
  // entries, skewed toward low page numbers so reference bits matter,
  // with a segment erased every 5,000 ops and the capacity retargeted
  // every 7,919. The counts below were recorded by running this trace on
  // the node-based cache (unordered_map index, slots behind pointers)
  // that the flat layout replaced: a different victim anywhere changes
  // them.
  constexpr uint64_t kCapacities[] = {8 << 10, 32 << 10, 64 << 10};
  BlockCache cache(32 << 10);
  const uint64_t stores[] = {cache.RegisterStore(), cache.RegisterStore(),
                             cache.RegisterStore()};
  Rng rng(20261018);
  Statistics stats;
  PageBuffer buf;
  uint64_t hits = 0;
  uint64_t misses = 0;
  for (uint64_t op = 0; op < 200000; ++op) {
    if (op % 5000 == 4999) {
      cache.EraseSegment(stores[rng.UniformInt(0, 2)], rng.UniformInt(0, 7));
    }
    if (op % 7919 == 7918) {
      cache.set_capacity(kCapacities[rng.UniformInt(0, 2)]);
    }
    const uint64_t store = stores[rng.UniformInt(0, 2)];
    const SegmentId segment = rng.UniformInt(0, 7);
    const uint64_t page_idx =
        std::min(rng.UniformInt(0, 63), rng.UniformInt(0, 63));
    if (cache.Lookup(store, segment, page_idx, &buf)) {
      ++hits;
      continue;
    }
    ++misses;
    const size_t count = 1 + (store * 31 + segment * 7 + page_idx) % 8;
    const std::vector<Entry> page = MakePage(page_idx, count);
    cache.Insert(store, segment, page_idx, page.data(), count, &stats);
  }
  EXPECT_EQ(hits, 39792u);
  EXPECT_EQ(misses, 160208u);
  EXPECT_EQ(stats.cache_evictions.load(), 159414u);
  EXPECT_EQ(cache.usage(), 62464u);
}

TEST(BlockCacheTest, ConcurrentAdmitLookupEraseServesOnlyLivePages) {
  // Four threads Lookup-then-Insert over one shared key space in phases.
  // Phase p's live segments are [p, p + kLive); lookups also probe the
  // segments already erased. At each barrier one thread erases the oldest
  // live segment and retargets the capacity, so later phases run against
  // slots freed by the erase, refilled by evictions and shed by shrinks.
  constexpr int kThreads = 4;
  constexpr uint64_t kPhases = 12;
  constexpr uint64_t kLive = 3;
  constexpr uint64_t kPages = 48;
  constexpr uint64_t kOpsPerPhase = 4000;
  constexpr uint64_t kCapacities[] = {4 << 10, 16 << 10, 64 << 10};
  BlockCache cache(16 << 10);
  const uint64_t store = cache.RegisterStore();
  // Every entry of a page encodes the page's key, so a hit that copied
  // out another key's bytes shows.
  const auto page_of = [](SegmentId segment, uint64_t page_idx) {
    std::vector<Entry> page(1 + (segment + page_idx) % 8);
    for (size_t i = 0; i < page.size(); ++i) {
      page[i] = Entry{(segment << 32) | (page_idx << 8) | i, segment,
                      page_idx, EntryType::kValue};
    }
    return page;
  };
  const auto same_page = [](const PageBuffer& got,
                            const std::vector<Entry>& want) {
    if (got.size() != want.size()) return false;
    for (size_t i = 0; i < want.size(); ++i) {
      if (got[i].key != want[i].key || got[i].seq != want[i].seq ||
          got[i].value != want[i].value) {
        return false;
      }
    }
    return true;
  };

  uint64_t oldest_live = 0;  // written only by the barrier's completion
  std::barrier phase_end(kThreads, [&]() noexcept {
    cache.EraseSegment(store, oldest_live);
    ++oldest_live;
    cache.set_capacity(kCapacities[oldest_live % 3]);
  });
  Statistics stats;
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> erased_hits{0};
  std::atomic<uint64_t> wrong_pages{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(100 + t);
      PageBuffer buf;
      for (uint64_t phase = 0; phase < kPhases; ++phase) {
        const uint64_t live_lo = oldest_live;
        for (uint64_t op = 0; op < kOpsPerPhase; ++op) {
          const SegmentId segment = rng.UniformInt(0, live_lo + kLive - 1);
          const uint64_t page_idx = rng.UniformInt(0, kPages - 1);
          const std::vector<Entry> want = page_of(segment, page_idx);
          if (cache.Lookup(store, segment, page_idx, &buf)) {
            hits.fetch_add(1, std::memory_order_relaxed);
            if (segment < live_lo) {
              erased_hits.fetch_add(1, std::memory_order_relaxed);
            } else if (!same_page(buf, want)) {
              wrong_pages.fetch_add(1, std::memory_order_relaxed);
            }
          } else if (segment >= live_lo) {
            cache.Insert(store, segment, page_idx, want.data(), want.size(),
                         &stats);
          }
        }
        phase_end.arrive_and_wait();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(erased_hits.load(), 0u);
  EXPECT_EQ(wrong_pages.load(), 0u);
  EXPECT_GT(hits.load(), 0u);
  EXPECT_GT(stats.cache_evictions.load(), 0u);
  // The byte accounting survived the races: usage is exactly the pages
  // still resident, and no erased segment kept one.
  PageBuffer buf;
  uint64_t resident_bytes = 0;
  for (SegmentId segment = 0; segment < kPhases + kLive; ++segment) {
    for (uint64_t page_idx = 0; page_idx < kPages; ++page_idx) {
      if (!cache.Lookup(store, segment, page_idx, &buf)) continue;
      EXPECT_GE(segment, kPhases) << "erased segment " << segment;
      EXPECT_TRUE(same_page(buf, page_of(segment, page_idx)));
      resident_bytes += buf.size() * sizeof(Entry);
    }
  }
  EXPECT_EQ(cache.usage(), resident_bytes);
}

TEST(BlockCacheTest, RoomOnlyInsertFillsFreeRoomAndNeverEvicts) {
  // One cache shard with room for four 8-entry pages. Room-only inserts
  // (read-ahead pages) take the free room and are then turned away; an
  // evicting insert still makes room for itself.
  constexpr uint64_t kPageBytes = 8 * sizeof(Entry);
  BlockCache cache(4 * kPageBytes, /*num_shards=*/1);
  const uint64_t store = cache.RegisterStore();
  Statistics stats;
  const std::vector<Entry> page = MakePage(0, 8);
  for (uint64_t p = 0; p < 6; ++p) {
    cache.Insert(store, 1, p, page.data(), 8, &stats, /*may_evict=*/false);
  }
  EXPECT_EQ(cache.usage(), 4 * kPageBytes);
  EXPECT_EQ(stats.cache_evictions.load(), 0u);
  PageBuffer buf;
  for (uint64_t p = 0; p < 6; ++p) {
    EXPECT_EQ(cache.Lookup(store, 1, p, &buf), p < 4) << p;
  }
  // A resident page offered again changes nothing.
  cache.Insert(store, 1, 0, page.data(), 8, &stats, /*may_evict=*/false);
  EXPECT_EQ(cache.usage(), 4 * kPageBytes);
  cache.Insert(store, 1, 6, page.data(), 8, &stats);
  EXPECT_EQ(stats.cache_evictions.load(), 1u);
  EXPECT_TRUE(cache.Lookup(store, 1, 6, &buf));
  EXPECT_EQ(cache.usage(), 4 * kPageBytes);
}

TEST(BlockCacheTest, ConcurrentRoomOnlyAdmissionKeepsUsageExact) {
  // Room-only inserts read a shard's usage before taking its lock. Four
  // threads mix them with evicting inserts and lookups while a fifth
  // reads usage() and a sixth retargets the capacity between its full
  // size and a quarter of it, as the memory arbiter does live: the
  // room-only inserts never evict, even when the capacity shrinks between
  // their check and their insert, usage never passes the largest
  // capacity, and it ends equal to the pages resident.
  constexpr int kThreads = 4;
  constexpr uint64_t kSegments = 8;
  constexpr uint64_t kPages = 64;
  constexpr uint64_t kCapacity = 16 << 10;
  BlockCache cache(kCapacity);
  const uint64_t store = cache.RegisterStore();
  const auto page_of = [](SegmentId segment, uint64_t page_idx) {
    return MakePage((segment << 16) | (page_idx << 4),
                    1 + (segment + page_idx) % 8);
  };
  Statistics evicting;
  Statistics room_only;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> over_capacity{0};
  std::thread watcher([&] {
    while (!done.load(std::memory_order_relaxed)) {
      if (cache.usage() > kCapacity) {
        over_capacity.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  std::thread retargeter([&] {
    for (uint64_t i = 0; !done.load(std::memory_order_relaxed); ++i) {
      cache.set_capacity(i % 2 == 0 ? kCapacity / 4 : kCapacity);
    }
  });
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(200 + t);
      PageBuffer buf;
      for (uint64_t op = 0; op < 20000; ++op) {
        const SegmentId segment = rng.UniformInt(0, kSegments - 1);
        const uint64_t page_idx = rng.UniformInt(0, kPages - 1);
        if (cache.Lookup(store, segment, page_idx, &buf)) continue;
        const std::vector<Entry> page = page_of(segment, page_idx);
        if (op % 4 == 0) {
          cache.Insert(store, segment, page_idx, page.data(), page.size(),
                       &evicting);
        } else {
          cache.Insert(store, segment, page_idx, page.data(), page.size(),
                       &room_only, /*may_evict=*/false);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  done.store(true, std::memory_order_relaxed);
  watcher.join();
  retargeter.join();
  cache.set_capacity(kCapacity);
  EXPECT_EQ(room_only.cache_evictions.load(), 0u);
  EXPECT_GT(evicting.cache_evictions.load(), 0u);
  EXPECT_EQ(over_capacity.load(), 0u);
  PageBuffer buf;
  uint64_t resident_bytes = 0;
  for (SegmentId segment = 0; segment < kSegments; ++segment) {
    for (uint64_t page_idx = 0; page_idx < kPages; ++page_idx) {
      if (!cache.Lookup(store, segment, page_idx, &buf)) continue;
      EXPECT_EQ(buf.size(), page_of(segment, page_idx).size());
      resident_bytes += buf.size() * sizeof(Entry);
    }
  }
  EXPECT_EQ(cache.usage(), resident_bytes);
  EXPECT_LE(resident_bytes, kCapacity);
}

// ---- the file backend's read-ahead pages and the cache ----
//
// At B = 4 one extent holds 37 pages. A scan's first page in an extent is
// looked up, and on a miss fills the reader's window and is admitted,
// evicting if it must; the 36 read-ahead pages behind it skip the lookup
// and take only free room.

constexpr uint64_t kExtentPages =
    4096 / (4 * FilePageStore::kEntryBytes + FilePageStore::kPageFooterBytes);

std::unique_ptr<ShardedDB> LoadedFileDb(const std::string& name,
                                        uint64_t cache_bytes) {
  Options o;
  o.size_ratio = 4;
  o.buffer_entries = 64;
  o.entries_per_page = 4;
  o.filter_bits_per_entry = 8.0;
  o.backend = StorageBackend::kFile;
  o.storage_dir = "/tmp/endure_block_cache_test_" + name;
  o.block_cache_bytes = cache_bytes;
  auto db = std::move(ShardedDB::Open(o)).value();
  std::vector<std::pair<Key, Value>> pairs;
  for (uint64_t i = 0; i < 20000; ++i) pairs.emplace_back(2 * i, i);
  EXPECT_TRUE(db->BulkLoad(pairs).ok());
  return db;
}

TEST(BlockCacheTest, LongScanEvictsAtMostOnePagePerExtent) {
  // Point reads fill a 64 KiB cache (512 pages of 4 entries); then a full
  // scan reads ~5,000 pages. Each window fill covers the next 37 pages of
  // its run, so a run of p pages takes at most ceil(p / 37) fills, and
  // only the page that filled the window may evict.
  ASSERT_EQ(kExtentPages, 37u);
  auto db = LoadedFileDb("scan_resistance", 64 << 10);
  for (Key k = 0; k < 40000; k += 14) ASSERT_TRUE(db->Get(k).has_value());
  const uint64_t cache_pages = (64 << 10) / (4 * sizeof(Entry));
  ASSERT_GT(db->TotalStats().cache_evictions.load(), 0u)
      << "the point reads did not fill the cache";

  const Statistics before = db->TotalStats();
  const StatusOr<std::vector<Entry>> all = db->Scan(0, 40000);
  ASSERT_TRUE(all.ok()) << all.status().message();
  EXPECT_EQ(all->size(), 20000u);
  const Statistics delta = db->TotalStats().Delta(before);
  ASSERT_GT(delta.range_pages_read, 8 * cache_pages);
  // Sum over runs of ceil(p / 37) <= pages / 37 + runs.
  const uint64_t max_fills =
      delta.range_pages_read / kExtentPages + delta.range_seeks;
  EXPECT_LE(delta.cache_evictions, max_fills)
      << delta.range_pages_read << " pages read over " << delta.range_seeks
      << " runs";
}

TEST(BlockCacheTest, SecondFullScanOfACacheThatHoldsTheDataReadsNoPage) {
  // A cache with room for the whole data set (~640 KB decoded): the first
  // full scan admits every page, read-ahead pages included, so the second
  // is served from the cache alone.
  auto db = LoadedFileDb("warming", 4 << 20);
  ASSERT_EQ(db->Scan(0, 40000).value().size(), 20000u);
  const Statistics before = db->TotalStats();
  ASSERT_EQ(db->Scan(0, 40000).value().size(), 20000u);
  const Statistics delta = db->TotalStats().Delta(before);
  EXPECT_EQ(delta.range_pages_read, 0u);
  EXPECT_GE(delta.cache_hits, 5000u);
  EXPECT_EQ(delta.cache_misses, 0u);
  EXPECT_EQ(delta.cache_evictions, 0u);
}

TEST(ArbitrateMemoryTest, SplitsFollowReadShareWithClamps) {
  const uint64_t budget = 1000;
  // Balanced mix: an even split.
  ArbiterSplit even = ArbitrateMemory(budget, 500, 500, 0);
  EXPECT_EQ(even.cache_bytes, 500u);
  EXPECT_EQ(even.cache_bytes + even.buffer_bytes, budget);
  // Read-only drift clamps at 7/8 cache.
  ArbiterSplit readonly = ArbitrateMemory(budget, 1000, 0, 0);
  EXPECT_EQ(readonly.cache_bytes, 875u);
  // Write-only drift clamps at 1/8 cache.
  ArbiterSplit writeonly = ArbitrateMemory(budget, 0, 1000, 0);
  EXPECT_EQ(writeonly.cache_bytes, 125u);
  // No observations yet: balanced.
  ArbiterSplit cold = ArbitrateMemory(budget, 0, 0, 0);
  EXPECT_EQ(cold.cache_bytes, 500u);
  // The buffer floor wins over the read share.
  ArbiterSplit floored = ArbitrateMemory(budget, 1000, 0, 400);
  EXPECT_GE(floored.buffer_bytes, 400u);
  EXPECT_EQ(floored.cache_bytes + floored.buffer_bytes, budget);
}

TEST(BlockCacheOptionsTest, BudgetRequiresCache) {
  Options o;
  o.memory_budget_bytes = 1 << 20;
  o.block_cache_bytes = 0;
  EXPECT_FALSE(o.Validate().ok());
  o.block_cache_bytes = 1 << 16;
  EXPECT_TRUE(o.Validate().ok());
  // The cache must fit inside the budget it arbitrates under.
  o.block_cache_bytes = 2 << 20;
  EXPECT_FALSE(o.Validate().ok());
}

TEST(BlockCacheOptionsTest, CannotEnableCacheAfterOpen) {
  // The cache and its page-store registrations are built at open; a
  // retune may resize it (including to 0 = pass-through) but not conjure
  // one up.
  Options o;
  auto db = ShardedDB::Open(o);
  ASSERT_TRUE(db.ok());
  Options with_cache = o;
  with_cache.block_cache_bytes = 1 << 16;
  EXPECT_FALSE((*db)->ApplyTuning(with_cache).ok());

  Options cached = o;
  cached.block_cache_bytes = 1 << 16;
  auto db2 = ShardedDB::Open(cached);
  ASSERT_TRUE(db2.ok());
  ASSERT_NE((*db2)->block_cache(), nullptr);
  Options resized = cached;
  resized.block_cache_bytes = 1 << 15;
  EXPECT_TRUE((*db2)->ApplyTuning(resized).ok());
  EXPECT_EQ((*db2)->block_cache()->capacity(), uint64_t{1} << 15);
  resized.block_cache_bytes = 0;
  EXPECT_TRUE((*db2)->ApplyTuning(resized).ok());
  EXPECT_EQ((*db2)->block_cache()->capacity(), 0u);
}

TEST(BlockCacheArbiterTest, ShiftsBudgetTowardReadsUnderReadHeavyMix) {
  // End-to-end arbiter: a read-heavy phase after a write phase must grow
  // the cache's share of the budget (observable via capacity) and
  // retarget the write buffers without disturbing correctness.
  Options o;
  o.buffer_entries = 128;
  o.entries_per_page = 4;
  o.num_shards = 2;
  o.block_cache_bytes = 64 * 1024;
  o.memory_budget_bytes = 512 * 1024;
  auto db_or = ShardedDB::Open(o);
  ASSERT_TRUE(db_or.ok());
  ShardedDB* db = db_or->get();
  // Write phase crosses several arbiter periods (1024 ops each).
  for (Key k = 0; k < 4096; ++k) {
    ASSERT_TRUE(db->Put(k, k).ok());
  }
  const uint64_t write_heavy_capacity = db->block_cache()->capacity();
  // Read-heavy phase: reads don't tick the arbiter (it is a write-path
  // hook), so interleave sparse writes to let it observe the new mix.
  for (int round = 0; round < 8; ++round) {
    for (Key k = 0; k < 4096; ++k) {
      db->Get(k);
    }
    for (Key k = 0; k < 512; ++k) {
      ASSERT_TRUE(db->Put(k, k + 1).ok());
    }
  }
  const uint64_t read_heavy_capacity = db->block_cache()->capacity();
  EXPECT_GT(read_heavy_capacity, write_heavy_capacity);
  // The split always exhausts the budget.
  EXPECT_LE(read_heavy_capacity, o.memory_budget_bytes);
  // Reads still correct after all the retargeting.
  for (Key k = 0; k < 512; ++k) {
    const std::optional<Value> got = db->Get(k);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, k + 1);
  }
}

}  // namespace
}  // namespace endure::lsm
