#include "lsm/block_cache.h"

#include <algorithm>

namespace endure::lsm {

BlockCache::BlockCache(uint64_t capacity_bytes, int num_shards)
    : shards_(static_cast<size_t>(std::max(1, num_shards))),
      capacity_(capacity_bytes) {}

template <typename Match>
uint32_t* BlockCache::SlotTable::Find(uint32_t hash, Match match) {
  if (buckets_.empty()) return nullptr;
  for (size_t i = hash & mask(); buckets_[i].slot != kNoSlot;
       i = (i + 1) & mask()) {
    if (buckets_[i].hash == hash && match(buckets_[i].slot)) {
      return &buckets_[i].slot;
    }
  }
  return nullptr;
}

void BlockCache::SlotTable::Place(Bucket b) {
  size_t i = b.hash & mask();
  while (buckets_[i].slot != kNoSlot) i = (i + 1) & mask();
  buckets_[i] = b;
}

void BlockCache::SlotTable::Insert(uint32_t hash, uint32_t slot) {
  if (2 * (size_ + 1) > buckets_.size()) {
    std::vector<Bucket> old(std::max<size_t>(16, 2 * buckets_.size()));
    old.swap(buckets_);
    for (const Bucket& b : old) {
      if (b.slot != kNoSlot) Place(b);
    }
  }
  Place(Bucket{slot, hash});
  ++size_;
}

void BlockCache::SlotTable::Erase(uint32_t hash, uint32_t slot) {
  size_t hole = hash & mask();
  while (buckets_[hole].slot != slot) hole = (hole + 1) & mask();
  // Backward shift: pull each later entry of the run into the hole unless
  // its home lies between the hole and where it sits, which would put it
  // before its home.
  for (size_t i = (hole + 1) & mask(); buckets_[i].slot != kNoSlot;
       i = (i + 1) & mask()) {
    const size_t home = buckets_[i].hash & mask();
    if (((i - home) & mask()) >= ((i - hole) & mask())) {
      buckets_[hole] = buckets_[i];
      hole = i;
    }
  }
  buckets_[hole] = Bucket{};
  --size_;
}

bool BlockCache::Lookup(uint64_t store_id, SegmentId segment,
                        uint64_t page_idx, PageBuffer* out) {
  if (capacity() == 0) return false;
  const CacheKey key{store_id, segment, page_idx};
  const uint64_t h = KeyHash(key);
  Shard& s = ShardFor(h);
  std::lock_guard<std::mutex> lock(s.mu);
  const uint32_t* idx = s.index.Find(
      TableHash(h), [&](uint32_t i) { return s.slots[i].key == key; });
  if (idx == nullptr) return false;
  Slot& slot = s.slots[*idx];
  slot.referenced = true;
  if (out == nullptr) return true;
  out->Reserve(slot.entries.size());
  std::copy(slot.entries.begin(), slot.entries.end(), out->data());
  out->set_size(slot.entries.size());
  return true;
}

void BlockCache::Insert(uint64_t store_id, SegmentId segment,
                        uint64_t page_idx, const Entry* entries, size_t count,
                        Statistics* stats, bool may_evict) {
  if (capacity() == 0 || count == 0) return;
  const uint64_t bytes = SlotBytes(count);
  const uint64_t bound = PerShardCapacity();
  if (bytes > bound) return;  // would evict the whole shard
  const CacheKey key{store_id, segment, page_idx};
  const uint64_t h = KeyHash(key);
  const uint32_t hash = TableHash(h);
  Shard& s = ShardFor(h);
  const auto has_room = [&s, bytes, bound] {
    return s.usage_bytes.load(std::memory_order_relaxed) + bytes <= bound;
  };
  if (!may_evict && !has_room()) return;
  std::lock_guard<std::mutex> lock(s.mu);
  if (const uint32_t* resident = s.index.Find(
          hash, [&](uint32_t i) { return s.slots[i].key == key; })) {
    // Two readers raced the same miss. The page is immutable, so the
    // resident copy is already right: only mark it referenced.
    s.slots[*resident].referenced = true;
    return;
  }
  if (!may_evict && !has_room()) return;  // filled since the unlocked check
  // A room-only page never runs the clock: EvictToFit reads the capacity
  // again, and a concurrent set_capacity may have shrunk it below `bound`.
  uint32_t idx = may_evict ? EvictToFit(s, bytes, stats) : kNoSlot;
  if (idx == kNoSlot && s.free_head != kNoSlot) {
    idx = s.free_head;
    s.free_head = s.slots[idx].next;
  } else if (idx == kNoSlot) {
    idx = static_cast<uint32_t>(s.slots.size());
    s.slots.emplace_back();
  }
  Slot& slot = s.slots[idx];
  slot.key = key;
  slot.entries.assign(entries, entries + count);  // reuses a victim's buffer
  slot.referenced = false;
  slot.valid = true;
  LinkSegment(s, idx);
  s.index.Insert(hash, idx);
  s.usage_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

void BlockCache::LinkSegment(Shard& s, uint32_t idx) {
  Slot& slot = s.slots[idx];
  const uint32_t hash = SegmentHash(slot.key);
  const uint32_t* head = s.segments.Find(hash, [&](uint32_t i) {
    return s.slots[i].key.SameSegment(slot.key);
  });
  if (head == nullptr) {
    slot.prev = slot.next = idx;
    s.segments.Insert(hash, idx);
    return;
  }
  const uint32_t tail = s.slots[*head].prev;
  slot.prev = tail;
  slot.next = *head;
  s.slots[tail].next = idx;
  s.slots[*head].prev = idx;
}

void BlockCache::UnlinkSegment(Shard& s, uint32_t idx) {
  const auto unlink = [&s](uint32_t i) {
    s.slots[s.slots[i].prev].next = s.slots[i].next;
    s.slots[s.slots[i].next].prev = s.slots[i].prev;
  };
  Slot& slot = s.slots[idx];
  const uint32_t hash = SegmentHash(slot.key);
  if (slot.next == idx) {  // the segment's last resident page
    s.segments.Erase(hash, idx);
    return;
  }
  uint32_t* head = s.segments.Find(hash, [&](uint32_t i) {
    return s.slots[i].key.SameSegment(slot.key);
  });
  const uint32_t tail = s.slots[*head].prev;
  if (tail != idx) {
    // Move the tail next to `idx`; unlinking `idx` then leaves the tail
    // in its place.
    unlink(tail);
    s.slots[tail].prev = idx;
    s.slots[tail].next = slot.next;
    s.slots[slot.next].prev = tail;
    slot.next = tail;
    if (*head == idx) *head = tail;
  }
  unlink(idx);
}

void BlockCache::Drop(Shard& s, uint32_t idx) {
  Slot& slot = s.slots[idx];
  s.usage_bytes.fetch_sub(SlotBytes(slot.entries.size()),
                          std::memory_order_relaxed);
  s.index.Erase(TableHash(KeyHash(slot.key)), idx);
  slot.valid = false;
}

void BlockCache::Free(Shard& s, uint32_t idx) {
  Slot& slot = s.slots[idx];
  std::vector<Entry>().swap(slot.entries);
  slot.next = s.free_head;
  s.free_head = idx;
}

uint32_t BlockCache::EvictToFit(Shard& s, uint64_t need, Statistics* stats) {
  const uint64_t bound = PerShardCapacity();
  const size_t ring = s.slots.size();
  // Two sweeps clear every reference bit and reach every victim; bail out
  // after that even if the bound is still exceeded (capacity may have been
  // shrunk below one page).
  uint32_t last = kNoSlot;
  for (size_t scanned = 0;
       s.usage_bytes.load(std::memory_order_relaxed) + need > bound &&
       scanned < 2 * ring;
       ++scanned) {
    const uint32_t idx = static_cast<uint32_t>(s.hand);
    s.hand = (s.hand + 1) % ring;
    Slot& victim = s.slots[idx];
    if (!victim.valid) continue;
    if (victim.referenced) {
      victim.referenced = false;  // second chance
      continue;
    }
    if (last != kNoSlot) Free(s, last);  // only the last victim is refilled
    UnlinkSegment(s, idx);
    Drop(s, idx);
    last = idx;
    if (stats != nullptr) ++stats->cache_evictions;
  }
  return last;
}

void BlockCache::EraseSegment(uint64_t store_id, SegmentId segment) {
  const CacheKey key{store_id, segment, 0};
  const uint32_t hash = SegmentHash(key);
  for (Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    const uint32_t* head = s.segments.Find(
        hash, [&](uint32_t i) { return s.slots[i].key.SameSegment(key); });
    if (head == nullptr) continue;
    const uint32_t first = *head;
    s.segments.Erase(hash, first);
    uint32_t idx = first;
    do {
      const uint32_t next = s.slots[idx].next;
      Drop(s, idx);
      Free(s, idx);
      idx = next;
    } while (idx != first);
  }
}

uint64_t BlockCache::usage() const {
  uint64_t total = 0;
  for (const Shard& s : shards_) {
    total += s.usage_bytes.load(std::memory_order_relaxed);
  }
  return total;
}

ArbiterSplit ArbitrateMemory(uint64_t budget_bytes, uint64_t reads,
                             uint64_t writes, uint64_t min_buffer_bytes) {
  ArbiterSplit split;
  if (budget_bytes == 0) return split;
  const uint64_t total_ops = reads + writes;
  // No signal yet: split evenly.
  double read_share = total_ops == 0
                          ? 0.5
                          : static_cast<double>(reads) /
                                static_cast<double>(total_ops);
  read_share = std::clamp(read_share, 1.0 / 8.0, 7.0 / 8.0);
  uint64_t cache = static_cast<uint64_t>(
      static_cast<double>(budget_bytes) * read_share);
  // The buffers keep their floor even when the mix is read-only.
  if (budget_bytes - cache < min_buffer_bytes) {
    cache = budget_bytes > min_buffer_bytes ? budget_bytes - min_buffer_bytes
                                            : 0;
  }
  split.cache_bytes = cache;
  split.buffer_bytes = budget_bytes - cache;
  return split;
}

}  // namespace endure::lsm
