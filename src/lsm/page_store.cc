#include "lsm/page_store.h"

#include "lsm/block_cache.h"
#include "lsm/options.h"
#include "util/env.h"
#include "util/fault_injection.h"
#include "util/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <type_traits>

namespace endure::lsm {

static_assert(std::is_trivially_copyable_v<Entry>,
              "page reads memcpy entries into caller buffers");

// ----------------------------------------------------------- base helpers --

void PageStore::set_block_cache(BlockCache* cache) {
  cache_ = cache;
  cache_store_id_ = cache != nullptr ? cache->RegisterStore() : 0;
}

namespace {
inline bool CacheableContext(IoContext ctx) {
  return ctx == IoContext::kPointQuery || ctx == IoContext::kRangeQuery;
}
}  // namespace

bool PageStore::CacheLookup(SegmentId segment, size_t page_idx, IoContext ctx,
                            PageBuffer* scratch) const {
  if (cache_ == nullptr || scratch == nullptr || !CacheableContext(ctx) ||
      cache_->capacity() == 0) {
    return false;
  }
  if (cache_->Lookup(cache_store_id_, segment, page_idx, scratch)) {
    ++stats_->cache_hits;
    return true;
  }
  ++stats_->cache_misses;
  return false;
}

void PageStore::CacheAdmit(SegmentId segment, size_t page_idx, IoContext ctx,
                           const Entry* entries, size_t count,
                           bool may_evict) const {
  if (cache_ == nullptr || !CacheableContext(ctx)) return;
  cache_->Insert(cache_store_id_, segment, page_idx, entries, count, stats_,
                 may_evict);
}

void PageStore::CacheErase(SegmentId segment) const {
  if (cache_ == nullptr) return;
  cache_->EraseSegment(cache_store_id_, segment);
}

StatusOr<PageView> PageStore::ReadPageView(SegmentId segment, size_t page_idx,
                                           IoContext ctx,
                                           PageBuffer* scratch) const {
  ENDURE_DCHECK(scratch != nullptr);  // the window dies on return
  ReadWindow window;  // this read's own buffer, handed back on return
  return ReadPageView(segment, page_idx, page_idx, ctx, scratch, &window);
}

Status PageStore::ReadPage(SegmentId segment, size_t page_idx, IoContext ctx,
                           PageBuffer* out) const {
  StatusOr<PageView> view = ReadPageView(segment, page_idx, ctx, out);
  ENDURE_RETURN_IF_ERROR(view.status());
  if (view->data != out->data()) {  // zero-copy backend: materialize
    out->Reserve(entries_per_page_);
    std::memcpy(out->data(), view->data, view->size * sizeof(Entry));
  }
  out->set_size(view->size);
  return Status::OK();
}

StatusOr<SegmentId> PageStore::WriteSegment(const std::vector<Entry>& entries,
                                            IoContext ctx) {
  ENDURE_CHECK_MSG(!entries.empty(), "cannot write an empty segment");
  std::unique_ptr<SegmentWriter> writer = NewSegmentWriter(ctx);
  for (size_t begin = 0; begin < entries.size();
       begin += entries_per_page_) {
    const size_t count =
        std::min<size_t>(entries_per_page_, entries.size() - begin);
    ENDURE_RETURN_IF_ERROR(writer->AppendPage(entries.data() + begin, count));
  }
  return writer->Seal();
}

// ---------------------------------------------------------------- memory --

class MemPageStore::Writer final : public PageStore::SegmentWriter {
 public:
  /// `data` is the slot's entry vector, cached here because the slot table
  /// may reallocate while other threads open segments — the vector itself
  /// is a stable heap allocation, so appends need no store lock.
  Writer(MemPageStore* store, SegmentId id, std::vector<Entry>* data,
         IoContext ctx)
      : store_(store), id_(id), data_(data), ctx_(ctx) {}

  ~Writer() override {
    if (!sealed_) store_->FreeSegment(id_);  // abandon
  }

  Status AppendPage(const Entry* entries, size_t count) override {
    ENDURE_CHECK_MSG(!sealed_, "writer already sealed");
    ENDURE_CHECK_MSG(count >= 1 && count <= store_->entries_per_page_,
                     "bad page entry count");
    ENDURE_CHECK_MSG(!partial_appended_,
                     "only the final page may be partial");
    partial_appended_ = count < store_->entries_per_page_;
    data_->insert(data_->end(), entries, entries + count);
    store_->stats_->OnPageWrite(ctx_, 1);
    return Status::OK();
  }

  StatusOr<SegmentId> Seal() override {
    ENDURE_CHECK_MSG(!sealed_, "writer already sealed");
    ENDURE_CHECK_MSG(!data_->empty(), "cannot seal an empty segment");
    sealed_ = true;
    return id_;
  }

 private:
  MemPageStore* store_;
  SegmentId id_;
  std::vector<Entry>* data_;
  IoContext ctx_;
  bool partial_appended_ = false;
  bool sealed_ = false;
};

std::unique_ptr<PageStore::SegmentWriter> MemPageStore::NewSegmentWriter(
    IoContext ctx) {
  std::lock_guard<std::mutex> lock(mu_);
  uint32_t slot;
  if (free_slots_.empty()) {
    ENDURE_CHECK_MSG(slots_.size() < 0xffffffffu, "too many live segments");
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  slots_[slot].generation = next_generation_++;
  slots_[slot].data = std::make_unique<std::vector<Entry>>();
  const SegmentId id = (slots_[slot].generation << 32) | slot;
  return std::make_unique<Writer>(this, id, slots_[slot].data.get(), ctx);
}

const std::vector<Entry>* MemPageStore::SlotData(SegmentId segment) const {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t index = SlotIndex(segment);
  ENDURE_CHECK_MSG(index < slots_.size(), "unknown segment");
  const Slot& slot = slots_[index];
  ENDURE_CHECK_MSG(slot.data != nullptr &&
                       slot.generation == Generation(segment),
                   "unknown segment");
  return slot.data.get();
}

StatusOr<PageView> MemPageStore::ReadPageView(
    SegmentId segment, size_t page_idx, size_t /*last_page*/, IoContext ctx,
    PageBuffer* scratch, ReadWindow* window) const {
  if (scratch == nullptr) scratch = &window->page_;
  // A cache hit is not a device read: no page-read accounting, the hit
  // counter tells the story. RAM pages cannot rot, so admission needs no
  // checksum gate here.
  if (CacheLookup(segment, page_idx, ctx, scratch)) {
    return PageView{scratch->data(), scratch->size()};
  }
  const std::vector<Entry>& data = *SlotData(segment);
  const size_t begin = page_idx * entries_per_page_;
  ENDURE_CHECK_MSG(begin < data.size(), "page index out of range");
  const size_t count = std::min<size_t>(entries_per_page_,
                                        data.size() - begin);
  stats_->OnPageRead(ctx, 1);
  CacheAdmit(segment, page_idx, ctx, data.data() + begin, count);
  // Resident pages are directly usable: hand out a borrowed view (stable
  // until FreeSegment) instead of copying.
  return PageView{data.data() + begin, count};
}

void MemPageStore::FreeSegment(SegmentId segment) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const size_t index = SlotIndex(segment);
    if (index >= slots_.size()) return;
    Slot& slot = slots_[index];
    if (slot.data == nullptr || slot.generation != Generation(segment)) {
      return;
    }
    slot.data.reset();
    free_slots_.push_back(static_cast<uint32_t>(index));
  }
  CacheErase(segment);
}

size_t MemPageStore::NumPages(SegmentId segment) const {
  return (SlotData(segment)->size() + entries_per_page_ - 1) /
         entries_per_page_;
}

size_t MemPageStore::NumEntries(SegmentId segment) const {
  return SlotData(segment)->size();
}

// ------------------------------------------------------------------ file --

namespace {

constexpr size_t kPageAlign = 4096;

// Entries are serialized with the shared EncodeEntry/DecodeEntry from
// entry.h — the same layout WAL records and recovery use.

size_t AlignedBytes(size_t bytes) {
  return (bytes + kPageAlign - 1) / kPageAlign * kPageAlign;
}

/// Page-aligned allocation of AlignedBytes(bytes) (pread/pwrite buffers;
/// alignment also keeps the door open for O_DIRECT). Returns null on
/// allocation failure (including an injected one) — callers surface an
/// IOError naming the size rather than aborting.
std::unique_ptr<char, void (*)(void*)> AlignedPage(size_t bytes) {
  if (CheckFault(FaultSite::kAlloc).fires()) {
    return {nullptr, &std::free};
  }
  void* p = std::aligned_alloc(kPageAlign, AlignedBytes(bytes));
  return {static_cast<char*>(p), &std::free};
}

Status AllocFailed(size_t bytes) {
  return Status::IOError("aligned_alloc of " + std::to_string(bytes) +
                         " bytes failed");
}

std::string ErrnoName(int err) {
  return std::string(std::strerror(err)) + " (errno " +
         std::to_string(err) + ")";
}

}  // namespace

class FilePageStore::Writer final : public PageStore::SegmentWriter {
 public:
  Writer(FilePageStore* store, SegmentId id, std::string path, IoContext ctx)
      : store_(store),
        id_(id),
        path_(std::move(path)),
        ctx_(ctx),
        buf_(nullptr, &std::free) {}

  ~Writer() override {
    if (!sealed_) {  // abandon: release the half-written file
      if (fd_ >= 0) ::close(fd_);
      if (created_) ::unlink(path_.c_str());
    }
  }

  Status AppendPage(const Entry* entries, size_t count) override {
    ENDURE_CHECK_MSG(!sealed_, "writer already sealed");
    ENDURE_CHECK_MSG(count >= 1 && count <= store_->entries_per_page_,
                     "bad page entry count");
    ENDURE_CHECK_MSG(!partial_appended_,
                     "only the final page may be partial");
    ENDURE_RETURN_IF_ERROR(extent_status_);
    ENDURE_RETURN_IF_ERROR(EnsureReady());
    partial_appended_ = count < store_->entries_per_page_;

    // Encode into the next free slot of the staging buffer (the buffer
    // holds ExtentPages() pages and is written out whenever it fills).
    const size_t page_bytes = store_->PageBytes();
    const size_t disk_bytes = store_->PageDiskBytes();
    char* page = buf_.get() + staged_ * disk_bytes;
    std::memset(page, 0, disk_bytes);
    for (size_t i = 0; i < count; ++i) {
      EncodeEntry(entries[i], page + i * kEntryBytes);
    }
    // Integrity footer: entry count, then CRC over payload + count.
    const uint32_t count32 = static_cast<uint32_t>(count);
    std::memcpy(page + page_bytes, &count32, sizeof(count32));
    const uint32_t crc = Crc32(page, page_bytes + sizeof(count32));
    std::memcpy(page + page_bytes + sizeof(count32), &crc, sizeof(crc));

    const FaultOutcome fault = CheckFault(FaultSite::kSegmentWrite);
    if (!fault.fires()) {
      ++staged_;
      num_entries_ += count;
      store_->stats_->OnPageWrite(ctx_, 1);
      return staged_ == store_->ExtentPages() ? WriteStaged()
                                              : Status::OK();
    }
    // A faulted page goes to the file alone, after the pages staged
    // before it, so the injected outcome hits exactly this page.
    ENDURE_RETURN_IF_ERROR(WriteStaged());
    if (fault.corrupt) {
      // Bit-rot between the CPU and the platter: the CRC above no longer
      // matches what lands on disk.
      page[count / 2] ^= 0x20;
    }
    // An injected torn write puts half the page on disk; an injected
    // plain error performs no I/O at all.
    size_t write_bytes = fault.short_io ? disk_bytes / 2 : disk_bytes;
    if (fault.err != 0 && !fault.short_io) write_bytes = 0;
    ssize_t written = 0;
    if (write_bytes > 0) {
      written = ::pwrite(fd_, page, write_bytes,
                         static_cast<off_t>(written_pages_ * disk_bytes));
      if (written < 0) {
        return Status::IOError("segment write to " + path_ + " failed: " +
                               ErrnoName(errno));
      }
    }
    if (fault.err != 0) {
      return Status::IOError("segment write to " + path_ + " failed: " +
                             ErrnoName(fault.err) + " [injected]");
    }
    if (static_cast<size_t>(written) < write_bytes) {
      return Status::IOError("short segment write to " + path_);
    }
    // An injected silent tear (short_io, no errno) falls through as
    // success — only the checksum can catch it later.
    ++written_pages_;
    num_entries_ += count;
    store_->stats_->OnPageWrite(ctx_, 1);
    return Status::OK();
  }

  StatusOr<SegmentId> Seal() override {
    ENDURE_CHECK_MSG(!sealed_, "writer already sealed");
    ENDURE_CHECK_MSG(written_pages_ + staged_ > 0,
                     "cannot seal an empty segment");
    ENDURE_RETURN_IF_ERROR(extent_status_);
    ENDURE_RETURN_IF_ERROR(WriteStaged());
    // Persistent segments must be on the device before the manifest may
    // reference them; ephemeral stores skip the fsync (the experiments'
    // hot path). A failed fsync leaves the writer unsealed: dropping it
    // abandons the segment, so a never-synced file is never registered.
    if (store_->persistent_) {
      const FaultOutcome fault = CheckFault(FaultSite::kSegmentFsync);
      if (fault.err != 0) {
        return Status::IOError("segment fsync of " + path_ + " failed: " +
                               ErrnoName(fault.err) + " [injected]");
      }
      if (::fsync(fd_) != 0) {
        return Status::IOError("segment fsync of " + path_ + " failed: " +
                               ErrnoName(errno));
      }
    }
    sealed_ = true;
    {
      std::lock_guard<std::mutex> lock(store_->mu_);
      store_->segments_.emplace(id_, SegmentMeta{fd_, num_entries_});
    }
    return id_;
  }

 private:
  /// Lazily creates the file and the page buffer — so constructing a
  /// writer really performs no fallible work, and both failure modes
  /// surface from AppendPage as Status.
  Status EnsureReady() {
    if (fd_ < 0) {
      const FaultOutcome fault = CheckFault(FaultSite::kSegmentOpen);
      if (fault.err != 0) {
        return Status::IOError("failed to create segment file " + path_ +
                               ": " + ErrnoName(fault.err) + " [injected]");
      }
      fd_ = ::open(path_.c_str(), O_CREAT | O_RDWR | O_TRUNC, 0644);
      if (fd_ < 0) {
        return Status::IOError("failed to create segment file " + path_ +
                               ": " + ErrnoName(errno));
      }
      created_ = true;
    }
    if (buf_ == nullptr) {
      buf_ = AlignedPage(store_->PageDiskBytes());
      if (buf_ == nullptr) return AllocFailed(store_->PageDiskBytes());
    }
    return Status::OK();
  }

  /// Writes the staged pages with one pwrite behind the pages already in
  /// the file. A failure is kept: the writer is dead, and every later
  /// AppendPage or Seal returns it.
  Status WriteStaged() {
    if (staged_ == 0) return Status::OK();
    const size_t disk_bytes = store_->PageDiskBytes();
    const size_t bytes = staged_ * disk_bytes;
    const ssize_t written =
        ::pwrite(fd_, buf_.get(), bytes,
                 static_cast<off_t>(written_pages_ * disk_bytes));
    if (written < 0) {
      extent_status_ = Status::IOError("segment write to " + path_ +
                                       " failed: " + ErrnoName(errno));
    } else if (static_cast<size_t>(written) < bytes) {
      extent_status_ = Status::IOError("short segment write to " + path_);
    } else {
      written_pages_ += staged_;
      staged_ = 0;
    }
    return extent_status_;
  }

  FilePageStore* store_;
  SegmentId id_;
  std::string path_;
  int fd_ = -1;
  bool created_ = false;
  IoContext ctx_;
  std::unique_ptr<char, void (*)(void*)> buf_;  ///< ExtentPages() pages
  size_t written_pages_ = 0;  ///< pages in the file
  size_t staged_ = 0;         ///< pages in buf_, behind those
  size_t num_entries_ = 0;
  Status extent_status_;      ///< first failed extent write
  bool partial_appended_ = false;
  bool sealed_ = false;
};

FilePageStore::FilePageStore(uint64_t entries_per_page, Statistics* stats,
                             std::string dir, bool persistent)
    : PageStore(entries_per_page, stats),
      dir_(std::move(dir)),
      persistent_(persistent) {
  ENDURE_CHECK_MSG(!dir_.empty(), "empty storage dir");
  ::mkdir(dir_.c_str(), 0755);  // best effort; open() below will verify
  if (persistent_) return;  // stable names; the store owns the directory
  // Ephemeral segment files get a per-process, per-instance prefix so
  // several stores (or test shards) can share a directory without
  // clobbering each other.
  static std::atomic<uint64_t> instance_counter{0};
  instance_tag_ = std::to_string(::getpid()) + "_" +
                  std::to_string(instance_counter.fetch_add(1));
}

FilePageStore::~FilePageStore() {
  for (auto& [id, meta] : segments_) {
    if (meta.fd >= 0) ::close(meta.fd);
    if (!persistent_) ::unlink(PathFor(id).c_str());
  }
  // Deferred deletes whose manifest never got published stay on disk as
  // orphans; the next recovery's RemoveUnreferencedSegments reaps them.
}

std::string FilePageStore::PathFor(SegmentId id) const {
  if (persistent_) return dir_ + "/seg_" + std::to_string(id) + ".run";
  return dir_ + "/seg_" + instance_tag_ + "_" + std::to_string(id) + ".run";
}

std::unique_ptr<PageStore::SegmentWriter> FilePageStore::NewSegmentWriter(
    IoContext ctx) {
  SegmentId id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = next_id_++;
  }
  return std::make_unique<Writer>(this, id, PathFor(id), ctx);
}

void FilePageStore::LendBuffers(ReadWindow* window) const {
  if (window->lender_ != nullptr) return;  // buffers go back to their lender
  ReadBuffers lent{AlignedBuf(nullptr, &std::free), PageBuffer()};
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!read_scratch_pool_.empty()) {
      lent = std::move(read_scratch_pool_.back());
      read_scratch_pool_.pop_back();
    }
  }
  window->lender_ = this;
  window->buf_ = std::move(lent.extent);
  window->page_ = std::move(lent.page);
}

void FilePageStore::ReturnScratch(ReadBuffers buffers) const {
  std::lock_guard<std::mutex> lock(mu_);
  read_scratch_pool_.push_back(std::move(buffers));
}

size_t FilePageStore::ExtentPages() const {
  return AlignedBytes(PageDiskBytes()) / PageDiskBytes();
}

void ReadWindow::Release() {
  lender_->ReturnScratch({std::move(buf_), std::move(page_)});
}

Status FilePageStore::FillWindow(const SegmentMeta& meta, SegmentId segment,
                                 size_t page_idx, size_t last_page,
                                 ReadWindow* window) const {
  ENDURE_DCHECK(last_page >= page_idx);
  const size_t disk_bytes = PageDiskBytes();
  const size_t num_pages =
      (meta.num_entries + entries_per_page_ - 1) / entries_per_page_;
  LendBuffers(window);
  if (window->buf_ == nullptr) {
    window->buf_ = AlignedPage(disk_bytes);
    if (window->buf_ == nullptr) return AllocFailed(disk_bytes);
  }
  window->num_pages_ = 0;
  const size_t want = std::min({ExtentPages(), last_page - page_idx + 1,
                                num_pages - page_idx});
  const off_t offset = static_cast<off_t>(page_idx * disk_bytes);
  ssize_t got =
      ::pread(meta.fd, window->buf_.get(), want * disk_bytes, offset);
  if (want > 1 && got < static_cast<ssize_t>(disk_bytes)) {
    // A failed or short extent read: read the wanted page alone, so the
    // error reported is exactly the one-page read's.
    got = ::pread(meta.fd, window->buf_.get(), disk_bytes, offset);
  }
  // PathFor allocates: only the error branches name the file.
  if (got < 0) {
    const int err = errno;
    return Status::IOError("segment read from " + PathFor(segment) +
                           " failed: " + ErrnoName(err));
  }
  if (got < static_cast<ssize_t>(disk_bytes)) {
    ++stats_->checksum_failures;
    return Status::Corruption("truncated page " + std::to_string(page_idx) +
                              " in " + PathFor(segment) + " (" +
                              std::to_string(got) + " of " +
                              std::to_string(disk_bytes) + " bytes)");
  }
  // A short extent that still covers the wanted page keeps its whole
  // pages; the next page it lacks refills from there.
  window->segment_ = segment;
  window->num_entries_ = meta.num_entries;
  window->first_page_ = page_idx;
  window->num_pages_ = static_cast<size_t>(got) / disk_bytes;
  return Status::OK();
}

StatusOr<PageView> FilePageStore::ReadPageView(SegmentId segment,
                                               size_t page_idx,
                                               size_t last_page,
                                               IoContext ctx,
                                               PageBuffer* scratch,
                                               ReadWindow* window) const {
  if (scratch == nullptr) {
    LendBuffers(window);
    scratch = &window->page_;
  }
  // A page the window already holds is a read-ahead page: it arrived with
  // an earlier page's extent, and the window knows its segment's size.
  const bool read_ahead = window->Holds(this, segment, page_idx);
  SegmentMeta meta;
  if (read_ahead) {
    meta.num_entries = window->num_entries_;
  } else {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = segments_.find(segment);
    ENDURE_CHECK_MSG(it != segments_.end(), "unknown segment");
    meta = it->second;
  }
  const size_t begin = page_idx * entries_per_page_;
  ENDURE_CHECK_MSG(begin < meta.num_entries, "page index out of range");
  const size_t count = std::min<size_t>(entries_per_page_,
                                        meta.num_entries - begin);

  // Cached pages were CRC-verified at admission; a hit skips the device
  // read (and any fault injected on it) entirely. A read-ahead page skips
  // the lookup: its bytes are already here, and verifying them costs
  // less than a lookup that mostly misses.
  if (!read_ahead && CacheLookup(segment, page_idx, ctx, scratch)) {
    return PageView{scratch->data(), scratch->size()};
  }

  // A page read whether its bytes come from the device now or from the
  // window's extent: the fault check, verification and counting below
  // run once per page, when the reader reaches it.
  const FaultOutcome fault = CheckFault(FaultSite::kSegmentRead);
  if (fault.err != 0) {
    return Status::IOError("segment read from " + PathFor(segment) +
                           " failed: " + ErrnoName(fault.err) +
                           " [injected]");
  }
  if (!read_ahead) {
    ENDURE_RETURN_IF_ERROR(
        FillWindow(meta, segment, page_idx, last_page, window));
  }
  const size_t page_bytes = PageBytes();
  const char* raw = window->buf_.get() +
                    (page_idx - window->first_page_) * PageDiskBytes();
  uint32_t stored_count = 0;
  uint32_t stored_crc = 0;
  std::memcpy(&stored_count, raw + page_bytes, sizeof(stored_count));
  std::memcpy(&stored_crc, raw + page_bytes + sizeof(stored_count),
              sizeof(stored_crc));
  const uint32_t actual = Crc32(raw, page_bytes + sizeof(stored_count));
  if (stored_crc != actual || stored_count != count) {
    ++stats_->checksum_failures;
    return Status::Corruption("checksum mismatch on page " +
                              std::to_string(page_idx) + " of " +
                              PathFor(segment));
  }
  scratch->Reserve(entries_per_page_);
  Entry* dst = scratch->data();
  for (size_t i = 0; i < count; ++i) {
    dst[i] = DecodeEntry(raw + i * kEntryBytes);
  }
  scratch->set_size(count);
  stats_->OnPageRead(ctx, 1);
  // Checksum-verified admission: a page only enters the cache after this
  // read proved its CRC, so a rotten page can never be served from it. A
  // read-ahead page takes only room that is free: a long scan warms a
  // cache with room, but evicts at most the one page per extent that
  // missed, not one per page it reads.
  CacheAdmit(segment, page_idx, ctx, dst, count, /*may_evict=*/!read_ahead);
  return PageView{dst, count};
}

void FilePageStore::FreeSegment(SegmentId segment) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = segments_.find(segment);
    if (it == segments_.end()) return;
    if (it->second.fd >= 0) ::close(it->second.fd);
    if (persistent_) {
      // Defer the unlink: the current manifest may still reference this
      // segment, and recovery must be able to reopen it if we crash
      // before the next manifest lands. PurgePendingDeletes() reaps it
      // afterwards.
      pending_deletes_.emplace_back(deletes_marked_++, PathFor(segment));
    } else {
      ::unlink(PathFor(segment).c_str());
    }
    segments_.erase(it);
  }
  CacheErase(segment);
}

Status FilePageStore::AdoptSegment(SegmentId id, size_t num_entries) {
  ENDURE_CHECK_MSG(persistent_, "AdoptSegment requires a persistent store");
  std::lock_guard<std::mutex> lock(mu_);
  if (num_entries == 0) {
    return Status::InvalidArgument("cannot adopt an empty segment");
  }
  if (segments_.count(id) != 0) {
    return Status::InvalidArgument("segment adopted twice: " +
                                   std::to_string(id));
  }
  const std::string path = PathFor(id);
  const int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) {
    return Status::IOError("missing segment file " + path);
  }
  struct stat st;
  const size_t pages =
      (num_entries + entries_per_page_ - 1) / entries_per_page_;
  if (::fstat(fd, &st) != 0 ||
      static_cast<size_t>(st.st_size) < pages * PageDiskBytes()) {
    ::close(fd);
    return Status::Corruption("segment file " + path +
                              " is shorter than the manifest records");
  }
  segments_.emplace(id, SegmentMeta{fd, num_entries});
  set_next_id(id + 1);
  return Status::OK();
}

void FilePageStore::PurgePendingDeletes(uint64_t mark) {
  std::vector<std::pair<uint64_t, std::string>> doomed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto split = std::find_if(
        pending_deletes_.begin(), pending_deletes_.end(),
        [mark](const auto& pending) { return pending.first >= mark; });
    doomed.assign(std::make_move_iterator(pending_deletes_.begin()),
                  std::make_move_iterator(split));
    pending_deletes_.erase(pending_deletes_.begin(), split);
  }
  for (const auto& [order, path] : doomed) {
    ::unlink(path.c_str());
  }
}

Status FilePageStore::RemoveUnreferencedSegments() {
  ENDURE_CHECK_MSG(persistent_,
                   "orphan cleanup requires a persistent store");
  auto names = ListDir(dir_);
  if (!names.ok()) return names.status();
  for (const std::string& name : *names) {
    // Persistent segment names are seg_<id>.run; everything else in the
    // directory (MANIFEST, WAL generations, tmp files) is not ours to
    // touch.
    if (name.rfind("seg_", 0) != 0 || name.size() <= 8 ||
        name.substr(name.size() - 4) != ".run") {
      continue;
    }
    char* end = nullptr;
    const unsigned long long id =
        std::strtoull(name.c_str() + 4, &end, 10);
    if (end == nullptr || std::string(end) != ".run") continue;
    bool referenced;
    {
      std::lock_guard<std::mutex> lock(mu_);
      referenced = segments_.count(static_cast<SegmentId>(id)) != 0;
    }
    if (!referenced) {
      ::unlink((dir_ + "/" + name).c_str());
    }
  }
  return Status::OK();
}

size_t FilePageStore::NumPages(SegmentId segment) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = segments_.find(segment);
  ENDURE_CHECK_MSG(it != segments_.end(), "unknown segment");
  return (it->second.num_entries + entries_per_page_ - 1) /
         entries_per_page_;
}

size_t FilePageStore::NumEntries(SegmentId segment) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = segments_.find(segment);
  ENDURE_CHECK_MSG(it != segments_.end(), "unknown segment");
  return it->second.num_entries;
}

// --------------------------------------------------------------- factory --

std::unique_ptr<PageStore> MakePageStore(uint64_t entries_per_page,
                                         Statistics* stats, int backend,
                                         const std::string& dir,
                                         bool persistent) {
  if (backend == static_cast<int>(StorageBackend::kFile)) {
    return std::make_unique<FilePageStore>(entries_per_page, stats, dir,
                                           persistent);
  }
  return std::make_unique<MemPageStore>(entries_per_page, stats);
}

}  // namespace endure::lsm
