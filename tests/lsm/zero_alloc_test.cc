// Pins the zero-allocation guarantee of the buffered read path: after
// warm-up, a point lookup through ShardedDB must perform no heap
// allocations at all, on the memory backend and on the file backend with
// the block cache off, on and evicting, or on and holding every page; a
// scan's allocations must not grow with the pages it reads, nor, when it
// visits its entries instead of collecting them, with its result; a
// file-backend scan allocates no more than the same scan on the memory
// backend, and neither allocates more with the block cache on than off;
// and a cache shrunk by the memory arbiter frees the payloads it
// sheds. Lives in its own test binary because it replaces the global
// allocator (operator new and aligned_alloc, which the file backend's
// extent buffers come from) and operator delete to count allocations and
// frees.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "lsm/block_cache.h"
#include "lsm/sharded_db.h"

namespace {

std::atomic<uint64_t> g_allocs{0};
std::atomic<uint64_t> g_frees{0};
std::atomic<bool> g_counting{false};

void CountAlloc() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
}

void CountedFree(void* p) {
  if (p != nullptr && g_counting.load(std::memory_order_relaxed)) {
    g_frees.fetch_add(1, std::memory_order_relaxed);
  }
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) {
  CountAlloc();
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  CountAlloc();
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

extern "C" void* aligned_alloc(std::size_t alignment,
                               std::size_t size) noexcept {
  CountAlloc();
  void* p = nullptr;
  return posix_memalign(&p, alignment, size) == 0 ? p : nullptr;
}

void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }

namespace endure::lsm {
namespace {

class AllocationScope {
 public:
  AllocationScope() {
    g_allocs.store(0, std::memory_order_relaxed);
    g_frees.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
  }
  ~AllocationScope() { g_counting.store(false, std::memory_order_relaxed); }
  uint64_t allocations() const {
    return g_allocs.load(std::memory_order_relaxed);
  }
  uint64_t frees() const { return g_frees.load(std::memory_order_relaxed); }
};

std::unique_ptr<ShardedDB> LoadedDb(
    uint64_t n, StorageBackend backend = StorageBackend::kMemory,
    uint64_t block_cache_bytes = 0) {
  Options o;
  o.size_ratio = 4;
  o.buffer_entries = 64;
  o.entries_per_page = 8;
  o.filter_bits_per_entry = 8.0;
  o.backend = backend;
  o.storage_dir = "/tmp/endure_zero_alloc_test";
  o.block_cache_bytes = block_cache_bytes;
  auto db = ShardedDB::Open(o);
  EXPECT_TRUE(db.ok());
  std::vector<std::pair<Key, Value>> pairs;
  for (uint64_t i = 0; i < n; ++i) pairs.emplace_back(2 * i, i);
  EXPECT_TRUE((*db)->BulkLoad(pairs).ok());
  return std::move(db).value();
}

TEST(ZeroAllocTest, PointLookupsAllocateNothing) {
  auto db = LoadedDb(20000);
  // Warm up: every run's page scratch is allocated at construction, but
  // touch the path once anyway before counting.
  for (Key k = 0; k < 64; ++k) {
    db->Get(2 * k);
    db->Get(2 * k + 1);
  }
  uint64_t hits = 0;
  uint64_t allocs = 0;
  {
    AllocationScope scope;
    for (Key k = 0; k < 2000; ++k) {
      hits += db->Get((2 * k * 7) % 40000).has_value() ? 1 : 0;
      db->Get(2 * k + 1);  // guaranteed miss
    }
    allocs = scope.allocations();
  }
  EXPECT_EQ(allocs, 0u) << "buffered Get path must not allocate";
  EXPECT_EQ(hits, 2000u);
}

TEST(ZeroAllocTest, ScanAllocationsAreBoundedByOutput) {
  auto db = LoadedDb(20000);
  (void)db->Scan(0, 200);  // warm up
  uint64_t allocs = 0;
  uint64_t returned = 0;
  {
    AllocationScope scope;
    for (int i = 0; i < 100; ++i) {
      const auto out = db->Scan(400 * i, 400 * i + 64).value();
      returned += out.size();
    }
    allocs = scope.allocations();
  }
  EXPECT_EQ(returned, 3200u);
  // Scans must allocate only iterator state and the result vector — a
  // small constant per qualifying run, not per page or per entry.
  EXPECT_LT(allocs, 100u * 40u)
      << "scan path allocates per page or per entry";
}

/// The file backend with the block cache off; on at 64 KiB, a tenth of
/// the data set (~640 KB decoded), so lookups keep missing, admitting and
/// evicting; and on at a size that holds the whole data set, so that after
/// warm-up every page a lookup reads is a cache hit.
constexpr uint64_t kEvictingCacheBytes = 64 << 10;
constexpr uint64_t kCacheSizes[] = {0, kEvictingCacheBytes, 4 << 20};

TEST(ZeroAllocTest, FilePointLookupsAllocateNothing) {
  for (const uint64_t cache_bytes : kCacheSizes) {
    SCOPED_TRACE(cache_bytes);
    auto db = LoadedDb(20000, StorageBackend::kFile, cache_bytes);
    auto probe = [&db](Key k) {
      const bool hit = db->Get((2 * k * 7) % 40000).has_value();
      db->Get(2 * k + 1);  // guaranteed miss
      return hit;
    };
    // Warm up: the store's buffer pool, this thread's page scratch and,
    // with the cache on, every page the counted lookups read.
    for (Key k = 0; k < 2000; ++k) probe(k);
    const Statistics before = db->TotalStats();
    uint64_t hits = 0;
    uint64_t allocs = 0;
    {
      AllocationScope scope;
      for (Key k = 0; k < 2000; ++k) hits += probe(k) ? 1 : 0;
      allocs = scope.allocations();
    }
    EXPECT_EQ(allocs, 0u) << "file-backed Get path must not allocate";
    EXPECT_EQ(hits, 2000u);
    const Statistics delta = db->TotalStats().Delta(before);
    if (cache_bytes == 0) {
      EXPECT_GE(delta.point_pages_read, 2000u);  // every hit preads
    } else if (cache_bytes == kEvictingCacheBytes) {
      // Admission ran and evicted inside the counted window.
      EXPECT_GT(delta.cache_misses, 0u);
      EXPECT_GT(delta.cache_evictions, 0u);
    } else {
      EXPECT_GE(delta.cache_hits, 2000u);
      EXPECT_EQ(delta.cache_misses, 0u);
    }
  }
}

TEST(ZeroAllocTest, FileScanAllocationsDoNotGrowWithPagesRead) {
  for (const uint64_t cache_bytes : kCacheSizes) {
    SCOPED_TRACE(cache_bytes);
    auto db = LoadedDb(20000, StorageBackend::kFile, cache_bytes);
    (void)db->Scan(0, 40000);  // warm up the buffer pool and the cache
    // Pages a scan reaches: read from the file, or served by the cache.
    auto measure = [&db](Key hi, uint64_t* pages) {
      const Statistics before = db->TotalStats();
      uint64_t allocs = 0;
      {
        AllocationScope scope;
        EXPECT_EQ(db->Scan(0, hi).value().size(), hi / 2);
        allocs = scope.allocations();
      }
      const Statistics delta = db->TotalStats().Delta(before);
      *pages = delta.range_pages_read + delta.cache_hits;
      return allocs;
    };
    uint64_t short_pages = 0;
    uint64_t long_pages = 0;
    const uint64_t short_allocs = measure(800, &short_pages);
    const uint64_t long_allocs = measure(40000, &long_pages);
    ASSERT_GE(long_pages, 20 * short_pages);
    // Both scans open one reader per run. The long one reads ~2000 more
    // pages (over 100 more extents of 19 pages), yet may allocate only
    // for its larger result vector: ~6 more doublings.
    EXPECT_LE(long_allocs, short_allocs + 8)
        << "scan allocates per page or per extent: " << short_allocs
        << " allocations for " << short_pages << " pages, " << long_allocs
        << " for " << long_pages;
  }
}

TEST(ZeroAllocTest, FileScanAllocatesNoMoreThanMemoryScan) {
  // A reader's decode space comes from the file backend's pool with its
  // extent, so a short scan there allocates only what the same scan
  // allocates on the memory backend (iterator state and the result), with
  // the cache off, evicting or holding every page, not one page buffer
  // per run it opens. A memory-backend cache hit returns the resident
  // page, so the memory scan too allocates no more with a cache on than
  // off; each scan is held to its own count with the cache off as well.
  auto scan_allocations = [](StorageBackend backend, uint64_t cache_bytes) {
    auto db = LoadedDb(20000, backend, cache_bytes);
    (void)db->Scan(0, 40000);  // warm up the buffer pool and the cache
    (void)db->Scan(0, 800);
    AllocationScope scope;
    EXPECT_EQ(db->Scan(0, 800).value().size(), 400u);
    return scope.allocations();
  };
  const uint64_t memory_uncached =
      scan_allocations(StorageBackend::kMemory, 0);
  const uint64_t file_uncached = scan_allocations(StorageBackend::kFile, 0);
  for (const uint64_t cache_bytes : kCacheSizes) {
    SCOPED_TRACE(cache_bytes);
    const uint64_t memory =
        scan_allocations(StorageBackend::kMemory, cache_bytes);
    const uint64_t file = scan_allocations(StorageBackend::kFile, cache_bytes);
    EXPECT_LE(file, memory) << "the file scan allocates " << file
                            << " times, the memory scan " << memory;
    EXPECT_LE(memory, memory_uncached)
        << "the memory scan allocates " << memory << " times, "
        << memory_uncached << " with the cache off";
    EXPECT_LE(file, file_uncached)
        << "the file scan allocates " << file << " times, "
        << file_uncached << " with the cache off";
  }
}

TEST(ZeroAllocTest, VisitedScanAllocationsDoNotGrowWithResult) {
  // A visitor scan holds one entry at a time: visiting 20,000 entries may
  // allocate no more than visiting 400 (iterator state only) — on the
  // memory backend, and on the file backend with the cache off, evicting
  // and holding every page.
  struct Leg {
    StorageBackend backend;
    uint64_t cache_bytes;
  };
  const Leg legs[] = {{StorageBackend::kMemory, 0},
                      {StorageBackend::kFile, 0},
                      {StorageBackend::kFile, kEvictingCacheBytes},
                      {StorageBackend::kFile, 4 << 20}};
  for (const Leg& leg : legs) {
    SCOPED_TRACE(leg.cache_bytes);
    auto db = LoadedDb(20000, leg.backend, leg.cache_bytes);
    (void)db->Scan(0, 40000);  // warm up the buffer pool and the cache
    auto measure = [&db](Key hi) {
      uint64_t visited = 0;
      uint64_t allocs = 0;
      {
        AllocationScope scope;
        EXPECT_TRUE(db->Scan(0, hi, [&visited](const Entry&) {
                        ++visited;
                        return true;
                      }).ok());
        allocs = scope.allocations();
      }
      EXPECT_EQ(visited, hi / 2);
      return allocs;
    };
    const uint64_t short_allocs = measure(800);
    const uint64_t long_allocs = measure(40000);
    EXPECT_LE(long_allocs, short_allocs)
        << "visited scan allocates per entry or per page";
  }
}

TEST(ZeroAllocTest, ShrunkCacheFreesEveryVictimButTheRefilledOne) {
  // One cache shard holding 16 eight-entry pages is shrunk to a quarter,
  // as the memory arbiter does. The next Insert evicts 13 pages to fit:
  // it refills the last victim's slot and buffer in place and frees the
  // other 12 payloads, so resident memory follows the capacity down.
  constexpr uint64_t kPageBytes = 8 * sizeof(Entry);
  BlockCache cache(16 * kPageBytes, /*num_shards=*/1);
  const uint64_t store = cache.RegisterStore();
  const std::vector<Entry> page(8);
  Statistics stats;
  for (uint64_t p = 0; p < 16; ++p) {
    cache.Insert(store, /*segment=*/1, p, page.data(), 8, &stats);
  }
  ASSERT_EQ(cache.usage(), 16 * kPageBytes);
  ASSERT_EQ(stats.cache_evictions.load(), 0u);
  cache.set_capacity(4 * kPageBytes);
  uint64_t allocs = 0;
  uint64_t frees = 0;
  {
    AllocationScope scope;
    cache.Insert(store, /*segment=*/1, 16, page.data(), 8, &stats);
    allocs = scope.allocations();
    frees = scope.frees();
  }
  EXPECT_EQ(stats.cache_evictions.load(), 13u);
  EXPECT_EQ(frees, 12u) << "every victim but the refilled one frees";
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(cache.usage(), 4 * kPageBytes);
}

}  // namespace
}  // namespace endure::lsm
