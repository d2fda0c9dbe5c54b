// Pins the zero-allocation guarantee of the buffered read path: after
// warm-up, a point lookup through ShardedDB on the memory backend must
// perform no heap allocations at all. Lives in its own test binary
// because it replaces the global allocator to count allocations.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "lsm/sharded_db.h"

namespace {

std::atomic<uint64_t> g_allocs{0};
std::atomic<bool> g_counting{false};

void CountAlloc() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
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

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace endure::lsm {
namespace {

class AllocationScope {
 public:
  AllocationScope() {
    g_allocs.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
  }
  ~AllocationScope() { g_counting.store(false, std::memory_order_relaxed); }
  uint64_t allocations() const {
    return g_allocs.load(std::memory_order_relaxed);
  }
};

std::unique_ptr<ShardedDB> LoadedDb(uint64_t n) {
  Options o;
  o.size_ratio = 4;
  o.buffer_entries = 64;
  o.entries_per_page = 8;
  o.filter_bits_per_entry = 8.0;
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

}  // namespace
}  // namespace endure::lsm
