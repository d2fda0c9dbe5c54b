// Copyright (c) endure-cpp authors. Licensed under the MIT license.
//
// K-way merging over entry streams with recency-based conflict resolution:
// among entries with the same key, the stream with the lower rank (newer
// source: memtable < shallow run < deep run) wins, matching how compaction
// "consolidates entries with a matching key, retaining only the most
// recent valid entry" (Section 2).

#ifndef ENDURE_LSM_MERGE_ITERATOR_H_
#define ENDURE_LSM_MERGE_ITERATOR_H_

#include <utility>
#include <vector>

#include "lsm/entry.h"

namespace endure::lsm {

/// Type-erased forward entry stream (adapts run iterators for
/// compaction merges).
class EntryStream {
 public:
  virtual ~EntryStream() = default;
  virtual bool Valid() const = 0;
  virtual const Entry& entry() const = 0;
  virtual void Next() = 0;
};

/// Adapts any iterator with Valid()/entry()/Next().
template <typename Iter>
class StreamAdapter final : public EntryStream {
 public:
  explicit StreamAdapter(Iter iter) : iter_(std::move(iter)) {}
  bool Valid() const override { return iter_.Valid(); }
  const Entry& entry() const override { return iter_.entry(); }
  void Next() override { iter_.Next(); }

  /// The wrapped iterator — lets callers reach status/diagnostics an
  /// iterator exposes beyond the EntryStream surface (a run iterator that
  /// hit an I/O error looks exhausted; the merge's consumer must check).
  const Iter& iter() const { return iter_; }

 private:
  Iter iter_;
};

/// Merging iterator: emits one entry per distinct key, newest-source wins.
/// Tombstones are emitted (callers decide whether to drop them).
class MergeIterator {
 public:
  /// `inputs[i]` has rank i: lower rank = more recent source. The streams
  /// must outlive the iterator; null entries are allowed.
  explicit MergeIterator(std::vector<EntryStream*> inputs);

  bool Valid() const;
  const Entry& entry() const;
  void Next();

 private:
  /// Advances to the next distinct key, resolving conflicts by rank.
  void FindNext();

  std::vector<EntryStream*> inputs_;
  Entry current_;
  bool valid_ = false;
};

}  // namespace endure::lsm

#endif  // ENDURE_LSM_MERGE_ITERATOR_H_
