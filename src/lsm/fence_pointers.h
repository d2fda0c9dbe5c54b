// Copyright (c) endure-cpp authors. Licensed under the MIT license.
//
// Fence pointers: the in-memory array of first-keys per page that lets a
// lookup touch at most one page per run (Section 2 "Optimizing Lookups").

#ifndef ENDURE_LSM_FENCE_POINTERS_H_
#define ENDURE_LSM_FENCE_POINTERS_H_

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "lsm/entry.h"

namespace endure::lsm {

/// Immutable page index for one sorted run. Lookups go through a two-level
/// search: a sparse top index (every 64th first-key, small enough to stay
/// cache-resident for even the deepest runs) narrows the probe to one
/// 64-key window of the dense array, so a lookup touches a handful of hot
/// cache lines instead of log2(pages) cold ones.
class FencePointers {
 public:
  /// Top-index sampling rate (one sampled key per 2^6 = 64 pages).
  static constexpr size_t kSampleShift = 6;

  /// `first_keys[i]` is the smallest key stored on page i; `last_key` is
  /// the largest key in the run. Pages must be non-empty and sorted.
  FencePointers(std::vector<Key> first_keys, Key last_key);

  /// Number of pages.
  size_t num_pages() const { return first_keys_.size(); }

  Key min_key() const { return first_keys_.front(); }
  Key max_key() const { return last_key_; }

  /// The page that could contain `key`, or nullopt when the key falls
  /// outside [min_key, max_key].
  std::optional<size_t> PageFor(Key key) const;

  /// The inclusive page range overlapping [lo, hi); nullopt when the range
  /// misses the run entirely. `hi` is exclusive.
  std::optional<std::pair<size_t, size_t>> PageRange(Key lo, Key hi) const;

  /// In-memory footprint in bits (for memory accounting), including the
  /// sparse top index.
  uint64_t SizeBits() const {
    return (first_keys_.size() + top_keys_.size() + 1) * sizeof(Key) * 8;
  }

 private:
  /// Index of the last fence <= key (two-level). Requires key >= min_key.
  size_t LastFenceLessOrEqual(Key key) const;
  /// Index of the last fence < key (two-level). Requires key > min_key.
  size_t LastFenceLess(Key key) const;

  std::vector<Key> first_keys_;
  std::vector<Key> top_keys_;  ///< first_keys_[i << kSampleShift]
  Key last_key_;
};

}  // namespace endure::lsm

#endif  // ENDURE_LSM_FENCE_POINTERS_H_
