#include "lsm/run.h"

#include <algorithm>

namespace endure::lsm {
namespace {

/// Branchless lower bound over one page of entries, structured so cache
/// misses overlap: small pages are pulled whole up front, large pages
/// prefetch both candidate probes of the next search level while the
/// current one is in flight (a cold 4KB page would otherwise serialize
/// log2(B) DRAM misses).
const Entry* PageLowerBound(const Entry* base, size_t n, Key key) {
  if (n * sizeof(Entry) <= 512) {
    const char* raw = reinterpret_cast<const char*>(base);
    for (size_t off = 0; off < n * sizeof(Entry); off += 64) {
      __builtin_prefetch(raw + off);
    }
    while (n > 1) {
      const size_t half = n / 2;
      base += base[half - 1].key < key ? half : 0;
      n -= half;
    }
    return base;
  }
  // The probe positions of the first three search levels are known up
  // front — pull all seven so their misses overlap in one memory round
  // trip instead of serializing.
  {
    const size_t h1 = n / 2;
    const size_t h2 = (n - h1) / 2;
    const size_t h3 = (n - h1 - h2) / 2;
    __builtin_prefetch(base + h1 - 1);
    if (h2 >= 1) {
      __builtin_prefetch(base + h2 - 1);
      __builtin_prefetch(base + h1 + h2 - 1);
    }
    if (h3 >= 1) {
      __builtin_prefetch(base + h3 - 1);
      __builtin_prefetch(base + h2 + h3 - 1);
      __builtin_prefetch(base + h1 + h3 - 1);
      __builtin_prefetch(base + h1 + h2 + h3 - 1);
    }
  }
  while (n > 1) {
    const size_t half = n / 2;
    const size_t next = (n - half) / 2;
    if (next > 2) {  // smaller strides fall on lines already in flight
      __builtin_prefetch(base + next - 1);
      __builtin_prefetch(base + half + next - 1);
    }
    base += base[half - 1].key < key ? half : 0;
    n -= half;
  }
  return base;
}

/// Per-thread point-lookup scratch. Runs are shared by lock-free snapshot
/// readers, so the buffer must be per reader thread, not per run; it grows
/// to the largest entries_per_page seen on this thread and is then reused
/// allocation-free.
PageBuffer& PointScratch() {
  static thread_local PageBuffer scratch;
  return scratch;
}

}  // namespace

Run::Run(PageStore* store, SegmentId segment,
         std::unique_ptr<BloomFilter> bloom,
         std::unique_ptr<FencePointers> fences, uint64_t num_entries,
         double bloom_bits_per_entry)
    : store_(store),
      segment_(segment),
      bloom_(std::move(bloom)),
      fences_(std::move(fences)),
      num_entries_(num_entries),
      bloom_bits_per_entry_(bloom_bits_per_entry) {
  ENDURE_CHECK(store_ != nullptr);
  ENDURE_CHECK(bloom_ != nullptr && fences_ != nullptr);
  ENDURE_CHECK(num_entries_ > 0);
}

Run::~Run() { store_->FreeSegment(segment_); }

const Entry* Run::Get(Key key, bool use_fence_skip,
                      Status* io_status) const {
  // Start pulling the filter block's cache line immediately — its address
  // depends only on the key, and the fetch overlaps the fence range check
  // and counter updates below.
  bloom_->Prefetch(key);
  Statistics* stats = store_->stats();
  if (use_fence_skip && (key < min_key() || key > max_key())) {
    ++stats->fence_skips;
    return nullptr;
  }
  ++stats->bloom_probes;
  if (!bloom_->MayContain(key)) {
    ++stats->bloom_negatives;
    return nullptr;
  }
  const std::optional<size_t> page = fences_->PageFor(key);
  if (!page.has_value()) {
    // Inside the filter but outside the fences (possible when fence skip is
    // disabled): a false positive that fence pointers resolve without I/O.
    ++stats->bloom_false_positives;
    return nullptr;
  }
  const StatusOr<PageView> view =
      store_->ReadPageView(segment_, *page, IoContext::kPointQuery,
                           &PointScratch());
  if (!view.ok()) {
    if (io_status != nullptr) *io_status = view.status();
    return nullptr;
  }
  const Entry* it = PageLowerBound(view->data, view->size, key);
  if (it->key == key) return it;
  ++stats->bloom_false_positives;
  return nullptr;
}

Run::Iterator::Iterator(const Run* run, size_t start_page, size_t end_page,
                        IoContext ctx)
    : run_(run),
      end_page_(end_page),
      current_page_(start_page),
      ctx_(ctx) {
  ENDURE_DCHECK(end_page < run->num_pages());
  ENDURE_DCHECK(start_page <= end_page);
  LoadPage(current_page_);
}

void Run::Iterator::LoadPage(size_t page) {
  StatusOr<PageView> view = run_->store_->ReadPageView(
      run_->segment_, page, end_page_, ctx_, /*scratch=*/nullptr, &window_);
  if (!view.ok()) {
    // The iterator dies in place: it looks exhausted, and the error is
    // held in status() for the consumer's post-drain check.
    if (status_.ok()) status_ = view.status();
    view_ = PageView{};
    exhausted_ = true;
    return;
  }
  view_ = *view;
  index_in_page_ = 0;
}

void Run::Iterator::NextPage() {
  if (current_page_ == end_page_) {
    exhausted_ = true;
    return;
  }
  LoadPage(++current_page_);
}

Run::Iterator Run::NewIterator(IoContext ctx) const {
  return Iterator(this, 0, num_pages() - 1, ctx);
}

void Run::BlindSeek() const {
  ++store_->stats()->range_seeks;
  // The read exists only to charge the cost model's one-seek-per-run; a
  // failure changes no visible state, so it is deliberately dropped.
  (void)store_->ReadPageView(segment_, 0, IoContext::kRangeQuery,
                             &PointScratch());
}

std::optional<Run::Iterator> Run::NewRangeIterator(Key lo, Key hi) const {
  const auto pages = fences_->PageRange(lo, hi);
  if (!pages.has_value()) return std::nullopt;
  ++store_->stats()->range_seeks;
  return Iterator(this, pages->first, pages->second, IoContext::kRangeQuery);
}

}  // namespace endure::lsm
