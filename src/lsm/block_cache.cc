#include "lsm/block_cache.h"

#include <algorithm>

namespace endure::lsm {

BlockCache::BlockCache(uint64_t capacity_bytes, int num_shards)
    : shards_(static_cast<size_t>(std::max(1, num_shards))),
      capacity_(capacity_bytes) {}

bool BlockCache::Lookup(uint64_t store_id, SegmentId segment,
                        uint64_t page_idx, PageBuffer* out) {
  if (capacity() == 0 || out == nullptr) return false;
  const CacheKey key{store_id, segment, page_idx};
  Shard& s = ShardFor(key);
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.index.find(key);
  if (it == s.index.end()) return false;
  Slot& slot = *s.slots[it->second];
  slot.referenced.store(true, std::memory_order_relaxed);
  out->Reserve(slot.entries.size());
  std::copy(slot.entries.begin(), slot.entries.end(), out->data());
  out->set_size(slot.entries.size());
  return true;
}

void BlockCache::Insert(uint64_t store_id, SegmentId segment,
                        uint64_t page_idx, const Entry* entries, size_t count,
                        Statistics* stats) {
  if (capacity() == 0 || count == 0) return;
  const uint64_t bytes = SlotBytes(count);
  if (bytes > PerShardCapacity()) return;  // would evict the whole shard
  const CacheKey key{store_id, segment, page_idx};
  Shard& s = ShardFor(key);
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.index.find(key);
  if (it != s.index.end()) {
    // Already resident (two readers raced the same miss); refresh the data
    // in place — the page is immutable, so the bytes are identical anyway.
    Slot& slot = *s.slots[it->second];
    slot.referenced.store(true, std::memory_order_relaxed);
    return;
  }
  EvictToFit(s, bytes, stats);
  size_t idx;
  if (!s.free_slots.empty()) {
    idx = s.free_slots.back();
    s.free_slots.pop_back();
  } else {
    idx = s.slots.size();
    s.slots.push_back(std::make_unique<Slot>());
  }
  Slot& slot = *s.slots[idx];
  slot.key = key;
  slot.entries.assign(entries, entries + count);
  slot.referenced.store(false, std::memory_order_relaxed);
  slot.valid = true;
  std::vector<size_t>& segment_slots =
      s.by_segment[SegmentKey{store_id, segment}];
  slot.segment_pos = segment_slots.size();
  segment_slots.push_back(idx);
  s.index[key] = idx;
  s.usage_bytes += bytes;
}

void BlockCache::FreeSlot(Shard& s, size_t idx) {
  Slot& slot = *s.slots[idx];
  // Swap-remove from the segment's list, fixing the moved slot's index.
  const auto list = s.by_segment.find(
      SegmentKey{slot.key.store_id, slot.key.segment});
  std::vector<size_t>& segment_slots = list->second;
  const size_t moved = segment_slots.back();
  segment_slots[slot.segment_pos] = moved;
  s.slots[moved]->segment_pos = slot.segment_pos;
  segment_slots.pop_back();
  if (segment_slots.empty()) s.by_segment.erase(list);
  ReleaseSlot(s, idx);
}

void BlockCache::ReleaseSlot(Shard& s, size_t idx) {
  Slot& slot = *s.slots[idx];
  s.usage_bytes -= SlotBytes(slot.entries.size());
  s.index.erase(slot.key);
  slot.entries.clear();
  slot.entries.shrink_to_fit();
  slot.valid = false;
  s.free_slots.push_back(idx);
}

void BlockCache::EvictToFit(Shard& s, uint64_t need, Statistics* stats) {
  const uint64_t bound = PerShardCapacity();
  if (s.slots.empty()) return;
  // Two sweeps clear every reference bit and reach every victim; bail out
  // after that even if the bound is still exceeded (capacity may have been
  // shrunk below one page).
  size_t scanned = 0;
  const size_t limit = 2 * s.slots.size();
  while (s.usage_bytes + need > bound && scanned < limit) {
    Slot& victim = *s.slots[s.hand % s.slots.size()];
    s.hand = (s.hand + 1) % s.slots.size();
    ++scanned;
    if (!victim.valid) continue;
    if (victim.referenced.exchange(false, std::memory_order_relaxed)) {
      continue;  // second chance
    }
    FreeSlot(s, (s.hand + s.slots.size() - 1) % s.slots.size());
    if (stats != nullptr) ++stats->cache_evictions;
  }
}

void BlockCache::EraseSegment(uint64_t store_id, SegmentId segment) {
  const SegmentKey key{store_id, segment};
  for (Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    const auto list = s.by_segment.find(key);
    if (list == s.by_segment.end()) continue;
    for (const size_t idx : list->second) ReleaseSlot(s, idx);
    s.by_segment.erase(list);
  }
}

uint64_t BlockCache::usage() const {
  uint64_t total = 0;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    total += s.usage_bytes;
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
