// Copyright (c) endure-cpp authors. Licensed under the MIT license.
//
// Page-granular storage for sorted runs with exhaustive I/O accounting.
// Every page access is counted against the shared Statistics — the engine
// equivalent of the paper's setup (direct I/O enabled, block cache
// disabled, so every logical access is a device access).
//
// The hot path is allocation-free: reads fill a caller-owned PageBuffer
// that is reused across calls, and writers stream pages out one at a time
// (open segment -> AppendPage -> Seal) so flushes and compactions never
// materialize a whole run in memory.
//
// Two backends: MemPageStore (default; pages live in RAM but are accounted
// as device pages) and FilePageStore (pages serialized to files via POSIX
// pread/pwrite for end-to-end realism; sequential readers and writers move
// whole 4 KiB extents of pages per syscall, while every page is still
// counted, fault-checked and verified on its own). Stores synchronize
// their segment tables internally, so background maintenance can stream
// merge I/O while the foreground serves reads: concurrent readers, writers
// and FreeSegment on *distinct* segments are safe. What stays with the
// caller: a segment is immutable once sealed, is never read before Seal,
// and is freed only after its last reader is gone (Run's destructor pairs
// with its shared_ptr).

#ifndef ENDURE_LSM_PAGE_STORE_H_
#define ENDURE_LSM_PAGE_STORE_H_

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "lsm/entry.h"
#include "lsm/statistics.h"
#include "util/macros.h"
#include "util/status.h"

namespace endure::lsm {

class BlockCache;

/// Handle to an immutable on-"disk" segment of pages.
using SegmentId = uint64_t;

/// A reusable, caller-owned buffer holding one page worth of entries.
/// Allocates once (on Reserve or construction) and is then filled in place
/// by PageStore::ReadPage, so steady-state reads perform no heap
/// allocations.
class PageBuffer {
 public:
  PageBuffer() = default;
  explicit PageBuffer(size_t capacity) { Reserve(capacity); }

  // Moves leave the source empty (capacity 0), so a moved-from buffer can
  // be safely re-Reserved.
  PageBuffer(PageBuffer&& other) noexcept
      : entries_(std::move(other.entries_)),
        capacity_(std::exchange(other.capacity_, 0)),
        size_(std::exchange(other.size_, 0)) {}
  PageBuffer& operator=(PageBuffer&& other) noexcept {
    entries_ = std::move(other.entries_);
    capacity_ = std::exchange(other.capacity_, 0);
    size_ = std::exchange(other.size_, 0);
    return *this;
  }

  /// Ensures room for `capacity` entries. Growing discards contents.
  void Reserve(size_t capacity) {
    if (capacity <= capacity_) return;
    entries_ = std::make_unique<Entry[]>(capacity);
    capacity_ = capacity;
    size_ = 0;
  }

  Entry* data() { return entries_.get(); }
  const Entry* data() const { return entries_.get(); }

  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }
  bool empty() const { return size_ == 0; }

  /// Sets the number of valid entries (filled externally via data()).
  void set_size(size_t n) {
    ENDURE_DCHECK(n <= capacity_);
    size_ = n;
  }

  Entry& operator[](size_t i) {
    ENDURE_DCHECK(i < size_);
    return entries_[i];
  }
  const Entry& operator[](size_t i) const {
    ENDURE_DCHECK(i < size_);
    return entries_[i];
  }

  const Entry* begin() const { return entries_.get(); }
  const Entry* end() const { return entries_.get() + size_; }

 private:
  std::unique_ptr<Entry[]> entries_;
  size_t capacity_ = 0;
  size_t size_ = 0;
};

/// A borrowed, read-only view of one page of entries. Views returned by
/// ReadPageView stay valid until the segment is freed (memory backend) or
/// until the buffer the page was decoded into is reused: the scratch
/// buffer passed in, or the window's own page buffer (file backend).
struct PageView {
  const Entry* data = nullptr;
  size_t size = 0;

  const Entry* begin() const { return data; }
  const Entry* end() const { return data + size; }
  const Entry& operator[](size_t i) const { return data[i]; }
};

class FilePageStore;

/// A reader's read window over one segment: the raw on-disk bytes of
/// consecutive pages, read with one pread into one aligned extent buffer,
/// and the page buffer its pages decode into when the reader passes no
/// scratch of its own. The file backend lends both from its pool on the
/// reader's first read and takes them back when the window is destroyed,
/// so a reader obtains them once, never per refill or per page. Holding
/// raw bytes is not reading a page: each page in the window is still
/// fault-checked, verified, decoded and counted only when its reader
/// reaches it. The memory backend never reads ahead; it uses the window
/// only for its page buffer, which a cache hit copies into. Move-only;
/// one per reader, never shared across threads.
class ReadWindow {
 public:
  ReadWindow() = default;
  ~ReadWindow() {
    if (lender_ != nullptr) Release();
  }
  // Moves swap, so each buffer still goes back to its own lender.
  ReadWindow(ReadWindow&& other) noexcept { Swap(other); }
  ReadWindow& operator=(ReadWindow&& other) noexcept {
    Swap(other);
    return *this;
  }

 private:
  friend class FilePageStore;
  friend class MemPageStore;

  bool Holds(const FilePageStore* store, SegmentId segment,
             size_t page) const {
    return store == lender_ && segment == segment_ && page >= first_page_ &&
           page - first_page_ < num_pages_;
  }
  void Release();
  void Swap(ReadWindow& other) noexcept {
    std::swap(lender_, other.lender_);
    std::swap(buf_, other.buf_);
    std::swap(page_, other.page_);
    std::swap(segment_, other.segment_);
    std::swap(num_entries_, other.num_entries_);
    std::swap(first_page_, other.first_page_);
    std::swap(num_pages_, other.num_pages_);
  }

  const FilePageStore* lender_ = nullptr;  ///< whose pool the buffers go to
  /// The extent; null until the first device read if the pair the
  /// window was lent had never held one.
  std::unique_ptr<char, void (*)(void*)> buf_{nullptr, &std::free};
  PageBuffer page_;  ///< decoded page for readers that pass no scratch
  SegmentId segment_ = 0;
  /// segment_'s entry count, so a page already in the window needs no
  /// segment-table lookup to find its own count.
  size_t num_entries_ = 0;
  size_t first_page_ = 0;
  size_t num_pages_ = 0;  ///< whole pages held; 0 = empty
};

/// Abstract page-granular segment store.
class PageStore {
 public:
  /// Streams one segment to the store page-at-a-time. Obtain from
  /// PageStore::NewSegmentWriter, append pages in order, then Seal.
  /// Destroying an unsealed writer — including after a failed append or
  /// seal — abandons the segment (its storage is released; pages already
  /// appended stay counted, including pages a file writer had staged but
  /// not yet written).
  ///
  /// The file backend stages appended pages in its one aligned 4 KiB
  /// buffer and writes each full buffer with one pwrite; the staged tail
  /// reaches the file in Seal, before the durability fsync. A page whose
  /// injected kSegmentWrite fault fires is written alone, after the pages
  /// staged before it, so injected tears, rot and errors hit that page
  /// only.
  class SegmentWriter {
   public:
    virtual ~SegmentWriter() = default;

    /// Appends one page of `count` entries (1 <= count <=
    /// entries_per_page). Every page except the final one must be full.
    /// Counts one page write against the writer's IoContext when the page
    /// is accepted (staged or written). On error (failed create, a failed
    /// or short extent write, ENOSPC, ...) the segment is unusable: drop
    /// the writer to abandon it. A failed extent write is returned by the
    /// AppendPage or Seal that issued it and by every later call.
    virtual Status AppendPage(const Entry* entries, size_t count) = 0;

    /// Writes any staged pages, then finalizes the segment (at least one
    /// page appended) and returns its id. May be called once; no appends
    /// afterwards. On error (the tail write or the durability fsync
    /// failed) the segment is NOT registered — drop the writer to abandon
    /// it.
    virtual StatusOr<SegmentId> Seal() = 0;
  };

  /// `entries_per_page` is the page capacity B; `stats` receives all I/O.
  PageStore(uint64_t entries_per_page, Statistics* stats)
      : entries_per_page_(entries_per_page), stats_(stats) {
    ENDURE_CHECK(entries_per_page >= 1);
    ENDURE_CHECK(stats != nullptr);
  }
  virtual ~PageStore() = default;
  ENDURE_DISALLOW_COPY_AND_ASSIGN(PageStore);

  /// Opens a streaming writer for a new segment. Creating the writer
  /// performs (and counts) no I/O; each AppendPage counts one page write
  /// against `ctx`.
  virtual std::unique_ptr<SegmentWriter> NewSegmentWriter(IoContext ctx) = 0;

  /// Convenience: persists `entries` (already sorted, non-empty) as a new
  /// segment through a SegmentWriter. Accounting is identical to streaming
  /// the pages by hand. On error the partial segment is abandoned.
  StatusOr<SegmentId> WriteSegment(const std::vector<Entry>& entries,
                                   IoContext ctx);

  /// Reads page `page_idx` of `segment` for a reader that goes on to read
  /// its pages in order up to `last_page`, counting one page read against
  /// `ctx`, and returns a borrowed view of its entries. Backends that hold
  /// pages in directly usable form (MemPageStore) return a pointer into
  /// the segment without copying and ignore the bound; backends that must
  /// materialize (FilePageStore) decode into `scratch` — reserved and
  /// reused in place, no allocation once warm — and return a view of it.
  /// A null `scratch` selects the window's own page buffer instead (a
  /// cache hit copies there too), which the file backend lends from its
  /// pool with the extent: a reader that keeps its window takes its
  /// decode space once.
  ///
  /// The file backend serves a page its window already holds (a
  /// read-ahead page, which arrived with an earlier page's extent) from
  /// the window, with neither a segment-table nor a block-cache lookup,
  /// and admits it only into cache room that needs no eviction. Any other
  /// page is looked up in the block cache first; on a miss the window is
  /// refilled with one pread of that page and the ones after it, bounded
  /// by `last_page` and by the window's 4 KiB buffer, and the page is
  /// admitted, evicting if it must. A short or failed extent read falls
  /// back to reading the page alone, so its error is the one-page read's.
  /// Either way the page is fault-checked (kSegmentRead), CRC-verified,
  /// decoded and counted when the reader reaches it: read failures and
  /// checksum mismatches surface as IOError / Corruption for the page that
  /// has them.
  virtual StatusOr<PageView> ReadPageView(SegmentId segment, size_t page_idx,
                                          size_t last_page, IoContext ctx,
                                          PageBuffer* scratch,
                                          ReadWindow* window) const = 0;

  /// The one-page case (point lookups, blind seeks): the read above with
  /// `last_page == page_idx` and a window that lives for this call only,
  /// so `scratch` must not be null.
  StatusOr<PageView> ReadPageView(SegmentId segment, size_t page_idx,
                                  IoContext ctx, PageBuffer* scratch) const;

  /// Convenience over ReadPageView: reads page `page_idx` into `out`
  /// (always materialized there), counting one page read against `ctx`.
  Status ReadPage(SegmentId segment, size_t page_idx, IoContext ctx,
                  PageBuffer* out) const;

  /// Releases a segment's storage.
  virtual void FreeSegment(SegmentId segment) = 0;

  /// Number of pages in a segment.
  virtual size_t NumPages(SegmentId segment) const = 0;

  /// Number of entries in a segment.
  virtual size_t NumEntries(SegmentId segment) const = 0;

  uint64_t entries_per_page() const { return entries_per_page_; }
  Statistics* stats() const { return stats_; }

  /// Attaches the deployment-wide block cache (nullable to detach). The
  /// store registers itself under a unique cache store id; afterwards
  /// point- and range-query reads are served from the cache on a hit and
  /// admit verified pages on a miss (the file backend's read-ahead pages
  /// skip the lookup and are admitted only into free room), while
  /// flush/compaction/recovery I/O bypasses it entirely. Call before the
  /// store is used concurrently.
  void set_block_cache(BlockCache* cache);
  BlockCache* block_cache() const { return cache_; }

 protected:
  /// On a hit, fills `scratch` from the cache, counts the hit and returns
  /// true. Only fires for point/range contexts with the cache attached and
  /// non-zero capacity; counts a miss otherwise within those constraints.
  bool CacheLookup(SegmentId segment, size_t page_idx, IoContext ctx,
                   PageBuffer* scratch) const;
  /// Admits one decoded, verified page (same gating as CacheLookup);
  /// with `may_evict` false only into room that needs no eviction.
  void CacheAdmit(SegmentId segment, size_t page_idx, IoContext ctx,
                  const Entry* entries, size_t count,
                  bool may_evict = true) const;
  /// Drops a freed segment's pages from the cache.
  void CacheErase(SegmentId segment) const;

  uint64_t entries_per_page_;
  Statistics* stats_;
  BlockCache* cache_ = nullptr;
  uint64_t cache_store_id_ = 0;
};

/// RAM-backed store (default experimental substrate). Segment ids encode
/// a dense slot index plus a generation tag: lookups are one indexed load
/// (no hashing), freed slots are recycled through a free list (the store
/// does not grow with the number of segments ever created), and a stale
/// id — a reader outliving FreeSegment — still aborts loudly because its
/// generation no longer matches.
class MemPageStore final : public PageStore {
 public:
  MemPageStore(uint64_t entries_per_page, Statistics* stats)
      : PageStore(entries_per_page, stats) {}

  using PageStore::ReadPageView;
  std::unique_ptr<SegmentWriter> NewSegmentWriter(IoContext ctx) override;
  StatusOr<PageView> ReadPageView(SegmentId segment, size_t page_idx,
                                  size_t last_page, IoContext ctx,
                                  PageBuffer* scratch,
                                  ReadWindow* window) const override;
  void FreeSegment(SegmentId segment) override;
  size_t NumPages(SegmentId segment) const override;
  size_t NumEntries(SegmentId segment) const override;

 private:
  class Writer;

  struct Slot {
    uint64_t generation = 0;           ///< matches the id's upper bits
    std::unique_ptr<std::vector<Entry>> data;  ///< null when free
  };

  static size_t SlotIndex(SegmentId id) { return id & 0xffffffffu; }
  static uint64_t Generation(SegmentId id) { return id >> 32; }

  const std::vector<Entry>* SlotData(SegmentId segment) const;

  /// Guards the slot table (slots_ itself may reallocate when a new slot
  /// is added). The entry vectors hang off stable heap allocations, so a
  /// borrowed PageView or a Writer's cached vector pointer survives table
  /// growth without holding the lock.
  mutable std::mutex mu_;
  uint64_t next_generation_ = 1;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
};

/// File-backed store: one file per segment under `dir`, fixed-width binary
/// entry encoding, pread/pwrite of whole extents — the pages that fit in
/// one 4 KiB-aligned buffer (37 at B = 4, one at B = 256) — through
/// aligned buffers reused from a per-store pool (reads decode in place;
/// no per-read allocation). Writers stage pages and write one extent per
/// pwrite; sequential readers read one extent per pread into their
/// ReadWindow. Page counts stay per page: a syscall is not a page.
///
/// On-disk page format: each page is PageBytes() of encoded entries
/// (zero-padded past the valid count) followed by an 8-byte footer —
/// a little-endian u32 entry count and a u32 CRC-32 (the WAL/manifest
/// polynomial) over the payload plus the count. Every read verifies the
/// footer, and a mismatch — bit-rot, a torn page, a truncated file —
/// returns Corruption and bumps Statistics::checksum_failures instead of
/// serving the damaged page. See docs/durability.md.
///
/// Two lifetimes:
/// - Ephemeral (default): segment names carry a per-process instance tag
///   (several stores can share a directory) and every file is unlinked
///   when freed or when the store is destroyed — the pre-durability
///   behaviour the experiments use.
/// - Persistent (`persistent = true`): segment names are stable
///   (`seg_<id>.run`), Seal() fsyncs the file before the segment becomes
///   referenceable, destruction keeps all files, FreeSegment defers the
///   unlink until PurgePendingDeletes() (called once a manifest captured
///   after the free is durable, so a crash never leaves the manifest
///   pointing at a deleted file), and AdoptSegment() re-registers a file
///   from a previous process at recovery. See docs/durability.md.
class FilePageStore final : public PageStore {
 public:
  /// Creates `dir` if needed (best effort; segment creation reports the
  /// failure if the directory is unusable).
  FilePageStore(uint64_t entries_per_page, Statistics* stats,
                std::string dir, bool persistent = false);
  ~FilePageStore() override;

  using PageStore::ReadPageView;
  std::unique_ptr<SegmentWriter> NewSegmentWriter(IoContext ctx) override;
  StatusOr<PageView> ReadPageView(SegmentId segment, size_t page_idx,
                                  size_t last_page, IoContext ctx,
                                  PageBuffer* scratch,
                                  ReadWindow* window) const override;
  void FreeSegment(SegmentId segment) override;
  size_t NumPages(SegmentId segment) const override;
  size_t NumEntries(SegmentId segment) const override;

  /// Bytes of one serialized entry on disk (the shared Entry encoding).
  static constexpr size_t kEntryBytes = kEncodedEntryBytes;

  /// Bytes of the per-page integrity footer: u32 entry count + u32 CRC-32.
  static constexpr size_t kPageFooterBytes = 8;

  bool persistent() const { return persistent_; }

  /// Re-registers segment `id` (written by an earlier process) from its
  /// file, verifying the file covers `num_entries` entries. Persistent
  /// stores only; bumps next_id() past `id`.
  Status AdoptSegment(SegmentId id, size_t num_entries);

  /// Counts the FreeSegment calls so far (persistent mode). A manifest
  /// captured after reading mark M references none of the first M freed
  /// segments — a freed segment is resident nowhere.
  uint64_t DeleteMark() const {
    std::lock_guard<std::mutex> lock(mu_);
    return deletes_marked_;
  }

  /// Unlinks the deferred deletes among the first `mark` FreeSegment
  /// calls (persistent mode). Call once a manifest captured at `mark` (or
  /// later) is on disk.
  void PurgePendingDeletes(uint64_t mark);

  /// Unlinks `seg_*.run` files not currently registered — the leftovers
  /// of a crash between a segment write and the manifest publication.
  /// Call at recovery, after adopting every manifest-referenced segment.
  Status RemoveUnreferencedSegments();

  /// First id NewSegmentWriter will hand out; persisted in the manifest
  /// so ids are never reused across restarts. Locked: one maintenance
  /// unit may be opening a segment while another unit's install
  /// publishes a manifest.
  SegmentId next_id() const {
    std::lock_guard<std::mutex> lock(mu_);
    return next_id_;
  }
  void set_next_id(SegmentId id) {
    if (id > next_id_) next_id_ = id;
  }

 private:
  class Writer;
  friend class Writer;
  friend class ReadWindow;

  struct SegmentMeta {
    int fd = -1;
    size_t num_entries = 0;
  };
  std::string PathFor(SegmentId id) const;
  /// Payload bytes of one page (entries only).
  size_t PageBytes() const { return kEntryBytes * entries_per_page_; }
  /// On-disk bytes of one page (payload + integrity footer).
  size_t PageDiskBytes() const { return PageBytes() + kPageFooterBytes; }
  /// Pages one extent holds: the whole pages that fit in one aligned
  /// buffer, whose size is PageDiskBytes() rounded up to 4 KiB.
  size_t ExtentPages() const;

  using AlignedBuf = std::unique_ptr<char, void (*)(void*)>;

  /// A window's buffers while they sit in the pool: an aligned extent
  /// (null until a window that held it needed one) and a decoded page.
  struct ReadBuffers {
    AlignedBuf extent;
    PageBuffer page;
  };

  /// Lends `window` a pair of buffers from the pool (a fresh, empty pair
  /// on a dry pool) unless it already holds a lender's pair. The window's
  /// destructor hands them back through ReturnScratch.
  void LendBuffers(ReadWindow* window) const;
  void ReturnScratch(ReadBuffers buffers) const;

  /// Refills `window` with page `page_idx` of `segment` and the pages
  /// after it, up to `last_page` and ExtentPages(), in one pread.
  Status FillWindow(const SegmentMeta& meta, SegmentId segment,
                    size_t page_idx, size_t last_page,
                    ReadWindow* window) const;

  std::string dir_;
  bool persistent_;
  std::string instance_tag_;  ///< unique per process+instance (see .cc)
  /// Guards the segment table, id counter, deferred deletes and the
  /// scratch pool. Never held across device I/O: reads copy the fd and
  /// borrow a scratch buffer under the lock, then pread/decode outside it.
  mutable std::mutex mu_;
  SegmentId next_id_ = 1;
  std::unordered_map<SegmentId, SegmentMeta> segments_;
  /// Persistent mode: deferred unlinks, each tagged with its position
  /// among FreeSegment calls (ascending), and the calls so far.
  std::vector<std::pair<uint64_t, std::string>> pending_deletes_;
  uint64_t deletes_marked_ = 0;
  /// Window buffers, one pair lent per live reader (a ReadWindow keeps
  /// its pair until destroyed); the pool high-water mark is the read
  /// concurrency (foreground + merge threads), so steady-state reads
  /// still allocate nothing.
  mutable std::vector<ReadBuffers> read_scratch_pool_;
};

/// Factory over Options::backend. `persistent` selects FilePageStore's
/// durable lifetime (ignored by the memory backend).
std::unique_ptr<PageStore> MakePageStore(uint64_t entries_per_page,
                                         Statistics* stats,
                                         int backend /* StorageBackend */,
                                         const std::string& dir,
                                         bool persistent = false);

}  // namespace endure::lsm

#endif  // ENDURE_LSM_PAGE_STORE_H_
