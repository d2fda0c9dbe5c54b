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
// Eviction is clock (second chance) per cache shard: a hit sets the slot's
// reference bit and an insert advances the clock hand, both under the
// shard lock. Sharding by key hash keeps the per-shard critical sections
// short and uncontended, which is what the lock-free read path needs from
// its only remaining shared structure.
//
// A shard is flat: its slots live by value in the clock ring, an
// open-addressing table maps keys to slot numbers, and each segment's
// slots are threaded on an intrusive list for EraseSegment. Admission
// that evicts refills the last victim's slot and payload buffer in place,
// so a cache that misses and evicts at a steady page size allocates
// nothing; a slot freed without a refill (erased, or shed after the
// capacity shrank) releases its payload, so resident memory follows the
// capacity the memory arbiter sets.

#ifndef ENDURE_LSM_BLOCK_CACHE_H_
#define ENDURE_LSM_BLOCK_CACHE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
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
  /// (nullable). With `may_evict` false (read-ahead pages) the page is
  /// admitted only into room its cache shard has free and evicts nothing,
  /// even when set_capacity shrinks the cache meanwhile: the shard's usage
  /// is read before its lock is taken, so a full shard turns the page away
  /// without locking.
  void Insert(uint64_t store_id, SegmentId segment, uint64_t page_idx,
              const Entry* entries, size_t count, Statistics* stats,
              bool may_evict = true);

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

  /// Current decoded-payload bytes resident across all shards (each
  /// shard's count read without its lock).
  uint64_t usage() const;

 private:
  struct CacheKey {
    uint64_t store_id = 0;
    SegmentId segment = 0;
    uint64_t page = 0;
    bool operator==(const CacheKey& o) const {
      return store_id == o.store_id && segment == o.segment && page == o.page;
    }
    bool SameSegment(const CacheKey& o) const {
      return store_id == o.store_id && segment == o.segment;
    }
  };
  /// Picks the cache shard; TableHash remixes it for the shard's tables.
  static uint64_t KeyHash(const CacheKey& k) {
    // Fibonacci mixing over the three fields.
    uint64_t h = k.store_id * 0x9e3779b97f4a7c15ULL;
    h ^= k.segment + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h ^= k.page + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return h;
  }
  /// The keys of one shard share KeyHash's low bits (they picked the
  /// shard), so the tables index by the high half of a second multiply.
  static uint32_t TableHash(uint64_t key_hash) {
    return static_cast<uint32_t>((key_hash * 0x9e3779b97f4a7c15ULL) >> 32);
  }
  /// (store, segment), the unit EraseSegment drops, hashed as its page 0.
  static uint32_t SegmentHash(const CacheKey& k) {
    return TableHash(KeyHash(CacheKey{k.store_id, k.segment, 0}));
  }

  static constexpr uint32_t kNoSlot = UINT32_MAX;

  struct Slot {
    CacheKey key;
    /// The decoded page. A free slot has released it, except the victim
    /// an insert is about to refill.
    std::vector<Entry> entries;
    /// A valid slot's neighbours on its segment's circular list; a free
    /// slot's `next` links the free list.
    uint32_t prev = kNoSlot;
    uint32_t next = kNoSlot;
    /// Second-chance bit: set on hit, cleared by the hand.
    bool referenced = false;
    bool valid = false;
  };

  /// Open-addressing set of slot numbers: linear probing, backward-shift
  /// delete, grown to stay at most half full. A bucket holds a slot number
  /// and its key's hash, never the key: a probe compares hashes and asks
  /// the caller whether a candidate slot matches.
  class SlotTable {
   public:
    /// The bucket's slot number for the first entry with `hash` that
    /// `match(slot)` accepts, or nullptr. Writable, so a caller can
    /// re-point an entry at another slot with the same key.
    template <typename Match>
    uint32_t* Find(uint32_t hash, Match match);
    /// Adds `slot`, which must be absent. Allocates only to grow.
    void Insert(uint32_t hash, uint32_t slot);
    /// Removes `slot`, which must be present under `hash`.
    void Erase(uint32_t hash, uint32_t slot);

   private:
    struct Bucket {
      uint32_t slot = kNoSlot;
      uint32_t hash = 0;
    };
    size_t mask() const { return buckets_.size() - 1; }
    void Place(Bucket b);
    std::vector<Bucket> buckets_;
    size_t size_ = 0;
  };

  struct Shard {
    std::mutex mu;
    std::vector<Slot> slots;  ///< clock ring
    SlotTable index;          ///< key -> its slot
    SlotTable segments;       ///< (store, segment) -> first slot of its list
    uint32_t free_head = kNoSlot;  ///< LIFO free list, linked by Slot::next
    size_t hand = 0;
    /// Written under `mu`; read without it by room-only admission and
    /// usage().
    std::atomic<uint64_t> usage_bytes{0};
  };

  Shard& ShardFor(uint64_t key_hash) {
    return shards_[key_hash % shards_.size()];
  }
  /// Evicts clock-style until `need` more bytes fit under the per-shard
  /// share of capacity, and returns the last victim, unlinked and
  /// uncounted but still holding its payload buffer for the caller to
  /// refill (kNoSlot if nothing was evicted). Earlier victims are freed.
  /// Shard lock held.
  uint32_t EvictToFit(Shard& s, uint64_t need, Statistics* stats);
  /// Invalidates slot `idx` and takes it out of the index and the usage
  /// count, keeping its payload; its segment list is the caller's. Shard
  /// lock held.
  static void Drop(Shard& s, uint32_t idx);
  /// Releases a dropped slot's payload and pushes it on the free list.
  /// Shard lock held.
  static void Free(Shard& s, uint32_t idx);
  /// Appends valid slot `idx` to its segment's list. Shard lock held.
  static void LinkSegment(Shard& s, uint32_t idx);
  /// Removes `idx` from its segment's list by moving the list's last slot
  /// into its place, the order EraseSegment then frees (and the free list
  /// hands back) slots in. Shard lock held.
  static void UnlinkSegment(Shard& s, uint32_t idx);
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
