// Copyright (c) endure-cpp authors. Licensed under the MIT license.
//
// A deployment-wide sharded block cache over PageStore pages, plus the
// memory-arbitration policy that splits one global byte budget between the
// write buffers and the cache ("Breaking Down Memory Walls", PAPERS.md).
//
// The cache holds decoded pages (Entry arrays) keyed by
// (store, segment, page). Hits copy the page out into the caller's
// PageBuffer, so cached data is never borrowed: eviction can drop a slot
// while a previous hit's copy is still in use. Admission is the
// responsibility of the page store and happens only for pages that passed
// whatever integrity verification the read performed (checksum-verified
// admission) and only for point/range-query reads — compaction, flush and
// recovery I/O bypasses the cache entirely so the page-exact accounting
// those paths are tested against stays deterministic.
//
// Eviction is clock (second chance) per cache shard: hits set a reference
// bit without taking the shard lock; inserts advance the clock hand under
// it. Sharding by key hash keeps the per-shard critical sections short and
// uncontended, which is what the lock-free read path needs from its only
// remaining shared structure.

#ifndef ENDURE_LSM_BLOCK_CACHE_H_
#define ENDURE_LSM_BLOCK_CACHE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "lsm/page_store.h"
#include "lsm/statistics.h"
#include "util/macros.h"

namespace endure::lsm {

class BlockCache {
 public:
  /// `capacity_bytes` bounds the decoded-page payload held across all
  /// cache shards (0 = every lookup misses and nothing is admitted).
  explicit BlockCache(uint64_t capacity_bytes, int num_shards = 16);
  ENDURE_DISALLOW_COPY_AND_ASSIGN(BlockCache);

  /// Hands out a deployment-unique store id. SegmentIds are only unique
  /// within one PageStore, so every store that feeds the cache registers
  /// itself and keys its pages under the returned id.
  uint64_t RegisterStore() {
    return next_store_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Copies the cached page into `out` and returns true on a hit. The
  /// caller owns the copy; eviction never invalidates it.
  bool Lookup(uint64_t store_id, SegmentId segment, uint64_t page_idx,
              PageBuffer* out);

  /// Admits one decoded page, evicting via the clock hand to fit. The
  /// caller must only admit pages it verified (CRC-checked, or from a
  /// backend that cannot rot). Evictions are counted against `stats`
  /// (nullable).
  void Insert(uint64_t store_id, SegmentId segment, uint64_t page_idx,
              const Entry* entries, size_t count, Statistics* stats);

  /// Drops every cached page of (store_id, segment). Called by
  /// PageStore::FreeSegment so a recycled SegmentId can never resurrect a
  /// dead segment's pages. Visits only that segment's slots (each cache
  /// shard lists its slots per segment), not the whole index.
  void EraseSegment(uint64_t store_id, SegmentId segment);

  /// Retargets the byte capacity (memory arbiter). Shards evict down to
  /// the new bound on their next insert; shrinking does not synchronously
  /// drop pages.
  void set_capacity(uint64_t bytes) {
    capacity_.store(bytes, std::memory_order_relaxed);
  }
  uint64_t capacity() const {
    return capacity_.load(std::memory_order_relaxed);
  }

  /// Current decoded-payload bytes resident across all shards.
  uint64_t usage() const;

 private:
  struct CacheKey {
    uint64_t store_id = 0;
    SegmentId segment = 0;
    uint64_t page = 0;
    bool operator==(const CacheKey& o) const {
      return store_id == o.store_id && segment == o.segment && page == o.page;
    }
  };
  struct KeyHash {
    size_t operator()(const CacheKey& k) const {
      // Fibonacci mixing over the three fields.
      uint64_t h = k.store_id * 0x9e3779b97f4a7c15ULL;
      h ^= k.segment + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      h ^= k.page + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      return static_cast<size_t>(h);
    }
  };

  /// (store, segment): the unit EraseSegment drops.
  struct SegmentKey {
    uint64_t store_id = 0;
    SegmentId segment = 0;
    bool operator==(const SegmentKey& o) const {
      return store_id == o.store_id && segment == o.segment;
    }
  };
  struct SegmentHash {
    size_t operator()(const SegmentKey& k) const {
      return KeyHash{}(CacheKey{k.store_id, k.segment, 0});
    }
  };

  struct Slot {
    CacheKey key;
    std::vector<Entry> entries;
    /// Second-chance bit: set lock-free on hit, cleared by the hand.
    std::atomic<bool> referenced{false};
    bool valid = false;
    /// Position in its segment's list in Shard::by_segment (valid only).
    size_t segment_pos = 0;
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<CacheKey, size_t, KeyHash> index;  ///< key -> slot
    /// The valid slots of each segment (unordered).
    std::unordered_map<SegmentKey, std::vector<size_t>, SegmentHash>
        by_segment;
    std::vector<std::unique_ptr<Slot>> slots;             ///< clock ring
    std::vector<size_t> free_slots;
    size_t hand = 0;
    uint64_t usage_bytes = 0;
  };

  Shard& ShardFor(const CacheKey& k) {
    return shards_[KeyHash{}(k) % shards_.size()];
  }
  /// Evicts clock-style until `need` more bytes fit under the per-shard
  /// share of capacity. Shard lock held.
  void EvictToFit(Shard& s, uint64_t need, Statistics* stats);
  /// Invalidates valid slot `idx`: its segment-list entry goes, then
  /// ReleaseSlot. Shard lock held.
  static void FreeSlot(Shard& s, size_t idx);
  /// Drops valid slot `idx`'s bytes and index entry and returns it to the
  /// free list (its segment list is the caller's). Shard lock held.
  static void ReleaseSlot(Shard& s, size_t idx);
  uint64_t PerShardCapacity() const {
    return capacity() / shards_.size();
  }
  static uint64_t SlotBytes(size_t count) {
    return static_cast<uint64_t>(count) * sizeof(Entry);
  }

  std::vector<Shard> shards_;
  std::atomic<uint64_t> capacity_;
  std::atomic<uint64_t> next_store_id_{1};
};

/// The memory arbiter's split decision: how one global budget divides
/// between the block cache and the write buffers.
struct ArbiterSplit {
  uint64_t cache_bytes = 0;
  uint64_t buffer_bytes = 0;
};

/// Splits `budget_bytes` proportionally to the observed read share of the
/// recent operation mix (`reads` point+range lookups vs `writes` in the
/// observation window), clamped so neither side starves: the cache share
/// stays within [1/8, 7/8] of the budget and the buffers keep at least
/// `min_buffer_bytes`. Pure function — the ShardedDB arbiter applies it,
/// tests pin its behaviour.
ArbiterSplit ArbitrateMemory(uint64_t budget_bytes, uint64_t reads,
                             uint64_t writes, uint64_t min_buffer_bytes);

}  // namespace endure::lsm

#endif  // ENDURE_LSM_BLOCK_CACHE_H_
