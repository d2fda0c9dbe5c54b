// Copyright (c) endure-cpp authors. Licensed under the MIT license.
//
// An immutable sorted run: page-resident entries plus in-memory Bloom
// filter and fence pointers. Point lookups probe the filter first (no
// I/O), then read at most one page through the fence pointers; scans read
// pages sequentially.
//
// All reads go through reusable PageBuffers: point lookups fill a
// thread-local scratch buffer (one per reader thread, reused for every
// Get on any run — lock-free snapshot readers share runs, so a per-run
// buffer would race) and each iterator decodes its sequential pages into
// its ReadWindow's page buffer, which the file backend lends from a pool
// — the steady state performs no heap allocations.

#ifndef ENDURE_LSM_RUN_H_
#define ENDURE_LSM_RUN_H_

#include <memory>
#include <optional>
#include <vector>

#include "lsm/bloom_filter.h"
#include "lsm/fence_pointers.h"
#include "lsm/page_store.h"

namespace endure::lsm {

/// Immutable sorted run (the on-disk unit of the LSM tree).
class Run {
 public:
  /// Takes ownership of the segment (freed on destruction).
  /// `bloom_bits_per_entry` is the *requested* filter budget the run was
  /// built at (before block rounding) — recorded in the manifest so a
  /// recovery rebuilds a filter with the identical geometry.
  Run(PageStore* store, SegmentId segment, std::unique_ptr<BloomFilter> bloom,
      std::unique_ptr<FencePointers> fences, uint64_t num_entries,
      double bloom_bits_per_entry);
  ~Run();
  ENDURE_DISALLOW_COPY_AND_ASSIGN(Run);

  uint64_t num_entries() const { return num_entries_; }
  size_t num_pages() const { return fences_->num_pages(); }
  Key min_key() const { return fences_->min_key(); }
  Key max_key() const { return fences_->max_key(); }
  const BloomFilter& bloom() const { return *bloom_; }

  /// The backing segment (recorded in the manifest so recovery can adopt
  /// the same file and rebuild this run from its pages).
  SegmentId segment() const { return segment_; }

  /// The requested (pre-rounding) Bloom budget this run was built at.
  /// BloomFilter(num_entries, this) reproduces the exact filter geometry
  /// (block count and hash count), which is what recovery relies on.
  double bloom_bits_per_entry() const { return bloom_bits_per_entry_; }

  /// Tuning epoch the run was built under: runs keep the Bloom/fence
  /// settings of their build time until the next compaction rewrites
  /// them, so after a live Reconfigure the tree stamps every newly built
  /// run with the new epoch and migration progress is the fraction of
  /// entries living in current-epoch runs.
  uint64_t tuning_epoch() const { return tuning_epoch_; }
  void set_tuning_epoch(uint64_t epoch) { tuning_epoch_ = epoch; }

  /// Point lookup. Counts bloom/fence activity and at most one page read
  /// (IoContext::kPointQuery). `use_fence_skip` short-circuits keys outside
  /// [min,max] without touching the filter. Reads go through the calling
  /// thread's reusable scratch buffer — no allocation once warm, no copy.
  /// Safe to call from any number of threads concurrently. Returns nullptr
  /// on a miss; a hit stays valid until this thread's next Get/BlindSeek
  /// on any run, or until the run is destroyed. A failed page read (I/O
  /// error, checksum mismatch) also returns nullptr and, when `io_status`
  /// is non-null, reports the failure there — callers that care about the
  /// distinction between "absent" and "unreadable" must pass it.
  const Entry* Get(Key key, bool use_fence_skip,
                   Status* io_status = nullptr) const;

  /// Sequential reader over [start_page, end_page] (inclusive); decodes
  /// one page at a time into its ReadWindow's page buffer, attributing
  /// I/O to `ctx`. It passes end_page as the read bound, so the file
  /// backend fills the window one extent per pread; the extent and the
  /// page buffer are lent from the store's pool once for the iterator's
  /// lifetime. Move-only (it owns the window).
  class Iterator {
   public:
    Iterator(const Run* run, size_t start_page, size_t end_page,
             IoContext ctx);
    Iterator(Iterator&&) = default;
    Iterator& operator=(Iterator&&) = default;

    bool Valid() const { return !exhausted_; }
    const Entry& entry() const {
      ENDURE_DCHECK(Valid());
      return view_[index_in_page_];
    }
    /// Inline within a page; crossing into the next page is out of line.
    void Next() {
      ENDURE_DCHECK(Valid());
      if (++index_in_page_ < view_.size) return;
      NextPage();
    }

    /// OK while every page loaded cleanly. A failed page read ends the
    /// iteration (Valid() goes false) with the error recorded here —
    /// consumers that must distinguish "drained" from "died" (compaction,
    /// scans) check this after the loop.
    const Status& status() const { return status_; }

   private:
    void LoadPage(size_t page);
    void NextPage();

    // Valid/entry/Next, which a merge calls once per entry, read only the
    // fields up to exhausted_, which fit in the iterator's first 64 bytes.
    const Run* run_;
    size_t end_page_;
    size_t current_page_;
    size_t index_in_page_ = 0;
    IoContext ctx_;
    PageView view_;      ///< current page (borrowed, or in window_)
    bool exhausted_ = false;
    Status status_;      ///< first page-read failure, if any
    ReadWindow window_;  ///< extent read ahead and the decoded page
  };

  /// Full-run scan (compactions).
  Iterator NewIterator(IoContext ctx) const;

  /// Range scan over keys in [lo, hi); returns nullopt (no I/O) when the
  /// run cannot overlap. Counts one range seek when it does.
  std::optional<Iterator> NewRangeIterator(Key lo, Key hi) const;

  /// Reads the run's first page under the range-query context, counting a
  /// seek — used to emulate the cost model's one-seek-per-run assumption
  /// when fence-pointer skipping is disabled.
  void BlindSeek() const;

 private:
  PageStore* store_;
  SegmentId segment_;
  std::unique_ptr<BloomFilter> bloom_;
  std::unique_ptr<FencePointers> fences_;
  uint64_t num_entries_;
  double bloom_bits_per_entry_;
  uint64_t tuning_epoch_ = 0;
};

}  // namespace endure::lsm

#endif  // ENDURE_LSM_RUN_H_
