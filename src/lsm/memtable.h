// Copyright (c) endure-cpp authors. Licensed under the MIT license.
//
// The write buffer (Level 0): a skiplist-backed memtable with a fixed
// entry capacity (m_buf / E). Multi-versioned and insert-only: a rewritten
// key stacks a new version in front of the old one instead of updating in
// place, so lock-free snapshot readers holding an older sequence bound keep
// seeing the version that was visible when their snapshot was taken.
//
// Concurrency contract (LevelDB-style): exactly one writer at a time
// (serialized externally by the shard lock), any number of concurrent
// readers with no lock. Nodes are linked with release stores and traversed
// with acquire loads; nodes are never unlinked or mutated after linking.
// Clear() is exempt from this contract — it requires external exclusive
// access (no concurrent readers), so LsmTree never calls it on a memtable
// that has been published in a read snapshot.

#ifndef ENDURE_LSM_MEMTABLE_H_
#define ENDURE_LSM_MEMTABLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "lsm/entry.h"
#include "util/macros.h"
#include "util/random.h"

namespace endure::lsm {

/// Sorted in-memory container with O(log n) insert/lookup. Orders nodes by
/// (key ascending, seq descending) — the canonical merge order — so all
/// versions of a key sit contiguously, newest first.
class SkipList {
 public:
  /// Sequence bound meaning "every version is visible".
  static constexpr SeqNum kMaxSeq = ~static_cast<SeqNum>(0);

  SkipList();
  ~SkipList();
  ENDURE_DISALLOW_COPY_AND_ASSIGN(SkipList);

  /// Inserts a new version (insert-only; never overwrites existing nodes).
  /// Returns true when the key was not present before, false when this
  /// stacks a new version onto an existing key. Single writer only.
  bool Upsert(const Entry& e);

  /// Finds the newest version of `key`, or nullptr.
  const Entry* Find(Key key) const { return Find(key, kMaxSeq); }

  /// Finds the newest version of `key` with seq <= seq_bound, or nullptr.
  const Entry* Find(Key key, SeqNum seq_bound) const;

  /// Number of distinct keys stored (not versions).
  size_t size() const { return size_.load(std::memory_order_relaxed); }
  /// Total number of versions stored (memory footprint proxy).
  size_t versions() const {
    return versions_.load(std::memory_order_relaxed);
  }
  bool empty() const { return size() == 0; }

  /// Forward iteration in ascending key order, yielding the newest version
  /// with seq <= bound for each key (keys with no visible version are
  /// skipped). The default bound yields the newest version of every key.
  class Iterator {
   public:
    /// An iterator over nothing: Valid() is false.
    Iterator() = default;
    explicit Iterator(const SkipList* list, SeqNum bound = kMaxSeq);
    bool Valid() const { return node_ != nullptr; }
    const Entry& entry() const;
    void Next();
    /// Positions at the first visible entry with key >= target.
    void Seek(Key target);
    /// Positions at the first visible entry.
    void SeekToFirst();

   private:
    /// Advances node_ until it is the newest visible version of its key.
    /// Precondition: node_ is the first (newest) stored version of its key.
    void SkipToVisible();

    const SkipList* list_ = nullptr;
    const void* node_ = nullptr;
    SeqNum bound_ = kMaxSeq;
  };

  Iterator NewIterator() const { return Iterator(this); }
  Iterator NewIterator(SeqNum bound) const { return Iterator(this, bound); }

  /// Copies out the newest version of every key in ascending key order.
  std::vector<Entry> Dump() const;

  /// Removes everything. Requires exclusive access (no concurrent readers,
  /// no snapshot may reference this list).
  void Clear();

 private:
  struct Node;
  static constexpr int kMaxHeight = 16;

  int RandomHeight();
  /// Finds the first node n with n.key > key, or (n.key == key and
  /// n.seq <= seq_bound) — i.e. the ordered position of (key, seq_bound)
  /// under (key asc, seq desc). Fills prev[] per level when non-null.
  Node* FindGreaterOrEqual(Key key, SeqNum seq_bound, Node** prev) const;

  Node* head_;
  std::atomic<int> height_{1};
  std::atomic<size_t> size_{0};
  std::atomic<size_t> versions_{0};
  Rng rng_;
};

/// The memtable: a capacity-bounded skiplist.
class MemTable {
 public:
  /// `capacity` in entries (m_buf / E).
  explicit MemTable(uint64_t capacity);

  /// True when another insert of a *new* key would exceed capacity.
  bool IsFull() const { return list_.size() >= capacity_; }

  /// Inserts a value or tombstone version. Callers flush on IsFull()
  /// before inserting more; rewriting an existing key stacks a version but
  /// never grows the distinct-key count.
  void Upsert(const Entry& e) { list_.Upsert(e); }

  /// Point lookup (newest version).
  const Entry* Find(Key key) const { return list_.Find(key); }
  /// Point lookup bounded at `seq_bound` (snapshot reads).
  const Entry* Find(Key key, SeqNum seq_bound) const {
    return list_.Find(key, seq_bound);
  }

  size_t size() const { return list_.size(); }
  size_t versions() const { return list_.versions(); }
  uint64_t capacity() const { return capacity_; }
  bool empty() const { return list_.empty(); }

  /// Retargets the seal threshold (live buffer resize). Entries are kept;
  /// if the table now holds >= capacity entries the caller seals or
  /// flushes it, exactly as if a write had just filled it.
  void set_capacity(uint64_t capacity) { capacity_ = capacity; }

  SkipList::Iterator NewIterator() const { return list_.NewIterator(); }
  SkipList::Iterator NewIterator(SeqNum bound) const {
    return list_.NewIterator(bound);
  }

  /// Newest version of every key sorted ascending (for flushing).
  std::vector<Entry> Dump() const { return list_.Dump(); }

  /// Empties the table. Requires exclusive access; never call on a
  /// memtable that has been published in a read snapshot.
  void Clear() { list_.Clear(); }

 private:
  uint64_t capacity_;
  SkipList list_;
};

}  // namespace endure::lsm

#endif  // ENDURE_LSM_MEMTABLE_H_
