#include "lsm/compaction.h"

#include <algorithm>

#include "lsm/merge_iterator.h"
#include "lsm/run_builder.h"
#include "util/thread_pool.h"

namespace endure::lsm {

// ------------------------------------------------------------ RateLimiter --

RateLimiter::RateLimiter(uint64_t bytes_per_sec)
    : rate_(bytes_per_sec),
      tokens_(static_cast<double>(bytes_per_sec)),  // start with a burst
      last_refill_(std::chrono::steady_clock::now()) {}

void RateLimiter::RefillLocked(std::chrono::steady_clock::time_point now) {
  const double elapsed =
      std::chrono::duration<double>(now - last_refill_).count();
  last_refill_ = now;
  if (rate_ == 0) return;
  tokens_ = std::min(tokens_ + elapsed * static_cast<double>(rate_),
                     static_cast<double>(rate_));  // burst = one second
}

uint64_t RateLimiter::Acquire(uint64_t bytes) {
  std::unique_lock<std::mutex> lock(mu_);
  if (rate_ == 0 || stopped_ || bytes == 0) return 0;
  const auto start = std::chrono::steady_clock::now();
  RefillLocked(start);
  while (!stopped_ && rate_ != 0 && tokens_ <= 0.0) {
    // Sleep until the bucket should surface, in bounded slices so a live
    // set_rate / Stop is picked up within ~100ms.
    const double deficit_sec = (1.0 - tokens_) / static_cast<double>(rate_);
    const auto deficit = std::chrono::milliseconds(
        static_cast<int64_t>(deficit_sec * 1000.0) + 1);
    cv_.wait_for(lock, std::min(deficit, std::chrono::milliseconds(100)));
    RefillLocked(std::chrono::steady_clock::now());
  }
  tokens_ -= static_cast<double>(bytes);  // may borrow below zero
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

void RateLimiter::set_rate(uint64_t bytes_per_sec) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    RefillLocked(std::chrono::steady_clock::now());
    const bool was_unlimited = rate_ == 0;
    rate_ = bytes_per_sec;
    if (rate_ != 0) {
      tokens_ = was_unlimited
                    ? static_cast<double>(rate_)
                    : std::min(tokens_, static_cast<double>(rate_));
    }
  }
  cv_.notify_all();
}

uint64_t RateLimiter::rate() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rate_;
}

void RateLimiter::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
  }
  cv_.notify_all();
}

// ------------------------------------------------------------------ merge --

namespace {

constexpr uint64_t kChargeChunkBytes = 256 * 1024;

/// Accumulates logical merge bytes and charges the limiter one chunk at a
/// time, so Acquire's lock is taken a few times per megabyte rather than
/// per entry. Charges one Entry per merged key on the read side and one
/// per surviving key on the write side — duplicate-heavy merges are
/// charged slightly under their true read volume, which errs on the side
/// of letting reclamation work proceed.
class LimiterCharger {
 public:
  LimiterCharger(RateLimiter* limiter, Statistics* stats)
      : limiter_(limiter), stats_(stats) {}
  ~LimiterCharger() { Flush(); }

  void Charge(uint64_t bytes) {
    if (limiter_ == nullptr) return;
    pending_ += bytes;
    if (pending_ >= kChargeChunkBytes) Flush();
  }

  void Flush() {
    if (limiter_ == nullptr || pending_ == 0) return;
    const uint64_t waited = limiter_->Acquire(pending_);
    pending_ = 0;
    if (waited > 0) stats_->rate_limited_ms += waited;
  }

 private:
  RateLimiter* limiter_;
  Statistics* stats_;
  uint64_t pending_ = 0;
};

/// Run iterator clipped to the key range [lo, hi): entries below lo are
/// skipped at construction, the first entry at or above hi ends the
/// stream. Partition subtasks need this key-granular trim because page
/// bounds are page-granular — the edge pages straddle the cut.
class BoundedRunStream final : public EntryStream {
 public:
  BoundedRunStream(const Run* run, size_t start_page, size_t end_page,
                   bool has_lo, Key lo, bool has_hi, Key hi)
      : iter_(run, start_page, end_page, IoContext::kCompaction),
        has_hi_(has_hi),
        hi_(hi) {
    if (has_lo) {
      while (iter_.Valid() && iter_.entry().key < lo) iter_.Next();
    }
  }

  bool Valid() const override {
    return iter_.Valid() && !(has_hi_ && iter_.entry().key >= hi_);
  }
  const Entry& entry() const override { return iter_.entry(); }
  void Next() override { iter_.Next(); }

  const Status& status() const { return iter_.status(); }

 private:
  Run::Iterator iter_;
  bool has_hi_;
  Key hi_;
};

/// Last page whose first key is <= lo — where keys >= lo can begin.
size_t FirstOverlappingPage(const FencePointers& f, Key lo) {
  size_t l = 0, r = f.num_pages();
  while (l < r) {
    const size_t m = l + (r - l) / 2;
    if (f.first_key(m) <= lo) {
      l = m + 1;
    } else {
      r = m;
    }
  }
  return l == 0 ? 0 : l - 1;
}

/// Last page whose first key is < hi (hi exclusive). Returns false when
/// even the first page starts at or above hi (no overlap).
bool LastOverlappingPage(const FencePointers& f, Key hi, size_t* out) {
  size_t l = 0, r = f.num_pages();
  while (l < r) {
    const size_t m = l + (r - l) / 2;
    if (f.first_key(m) < hi) {
      l = m + 1;
    } else {
      r = m;
    }
  }
  if (l == 0) return false;
  *out = l - 1;
  return true;
}

/// Split keys for ~`target_parts` partitions, cut at fence boundaries of
/// the largest input (even page intervals). Strictly increasing; may come
/// back short — or empty — when the fences carry few distinct keys.
std::vector<Key> PickPartitionBounds(
    const std::vector<std::shared_ptr<Run>>& inputs, size_t target_parts) {
  const Run* largest = inputs.front().get();
  for (const auto& r : inputs) {
    if (r->num_pages() > largest->num_pages()) largest = r.get();
  }
  const FencePointers& f = largest->fences();
  std::vector<Key> bounds;
  for (size_t i = 1; i < target_parts; ++i) {
    const size_t page = i * f.num_pages() / target_parts;
    if (page == 0) continue;  // first_key(0) would make partition 0 empty
    const Key k = f.first_key(page);
    if (!bounds.empty() && k <= bounds.back()) continue;
    bounds.push_back(k);
  }
  return bounds;
}

StatusOr<std::shared_ptr<Run>> MergeSequential(
    PageStore* store, const std::vector<std::shared_ptr<Run>>& inputs,
    double bits_per_entry, bool drop_tombstones, RateLimiter* limiter) {
  // Stack-owned adapters (reserve keeps the EntryStream pointers stable):
  // the merge consumes input pages one at a time while the builder streams
  // merged pages out, so working memory stays O(entries_per_page) per
  // input plus the output staging page — never the whole run.
  std::vector<StreamAdapter<Run::Iterator>> adapters;
  adapters.reserve(inputs.size());
  for (const auto& run : inputs) {
    adapters.emplace_back(run->NewIterator(IoContext::kCompaction));
  }
  std::vector<EntryStream*> heads;
  heads.reserve(adapters.size());
  for (auto& adapter : adapters) heads.push_back(&adapter);
  MergeIterator merge(std::move(heads));

  LimiterCharger charger(limiter, store->stats());
  RunBuilder builder(store, bits_per_entry, IoContext::kCompaction);
  for (; merge.Valid(); merge.Next()) {
    const Entry& e = merge.entry();
    charger.Charge(sizeof(Entry));  // read side
    if (!(drop_tombstones && e.is_tombstone())) {
      charger.Charge(sizeof(Entry));  // write side
      ENDURE_RETURN_IF_ERROR(builder.Add(e));
    }
  }
  // An input iterator that hit an I/O error looks exhausted to the merge;
  // treating that as a clean drain would silently shrink the output, so
  // check every input before accepting the result.
  for (const auto& adapter : adapters) {
    ENDURE_RETURN_IF_ERROR(adapter.iter().status());
  }
  if (builder.empty()) {
    return std::shared_ptr<Run>();  // everything consolidated away
  }
  return builder.Finish();
}

StatusOr<std::shared_ptr<Run>> MergePartitioned(
    PageStore* store, const std::vector<std::shared_ptr<Run>>& inputs,
    double bits_per_entry, bool drop_tombstones, const MergeLimits& limits,
    const std::vector<Key>& bounds) {
  const size_t parts = bounds.size() + 1;
  Statistics* stats = store->stats();

  // Each partition merges its key slice into a staging vector; the slices
  // are disjoint ([bounds[k-1], bounds[k]) per partition), so feeding them
  // back in partition order yields one strictly-ascending entry sequence
  // identical to the sequential merge. Staging trades memory (the merged
  // output lives in RAM briefly) for parallel input reads — acceptable
  // because partitioning only kicks in on large merges, which are exactly
  // the ones worth overlapping.
  struct Partition {
    std::vector<Entry> entries;
    Status status;
  };
  std::vector<Partition> results(parts);
  RunSubtasks(limits.subtask_pool, parts, [&](size_t k) {
    const bool has_lo = k > 0;
    const bool has_hi = k + 1 < parts;
    const Key lo = has_lo ? bounds[k - 1] : Key{};
    const Key hi = has_hi ? bounds[k] : Key{};
    // Streams keep the inputs' relative order, so merge rank (newer
    // source first) is preserved even when some inputs miss the slice.
    std::vector<std::unique_ptr<BoundedRunStream>> streams;
    std::vector<EntryStream*> heads;
    for (const auto& run : inputs) {
      if (has_lo && run->max_key() < lo) continue;
      if (has_hi && run->min_key() >= hi) continue;
      const size_t start =
          has_lo ? FirstOverlappingPage(run->fences(), lo) : 0;
      size_t end = run->num_pages() - 1;
      if (has_hi && !LastOverlappingPage(run->fences(), hi, &end)) continue;
      if (end < start) continue;
      streams.push_back(std::make_unique<BoundedRunStream>(
          run.get(), start, end, has_lo, lo, has_hi, hi));
    }
    for (auto& s : streams) heads.push_back(s.get());
    MergeIterator merge(std::move(heads));
    LimiterCharger charger(limits.limiter, stats);
    for (; merge.Valid(); merge.Next()) {
      const Entry& e = merge.entry();
      charger.Charge(sizeof(Entry));  // read side
      if (!(drop_tombstones && e.is_tombstone())) {
        results[k].entries.push_back(e);
      }
    }
    for (const auto& s : streams) {
      if (!s->status().ok() && results[k].status.ok()) {
        results[k].status = s->status();
      }
    }
  });
  for (const auto& r : results) {
    ENDURE_RETURN_IF_ERROR(r.status);
  }
  ++stats->compactions_partitioned;
  stats->compaction_subtasks += parts;

  LimiterCharger charger(limits.limiter, stats);
  RunBuilder builder(store, bits_per_entry, IoContext::kCompaction);
  for (const auto& r : results) {
    for (const Entry& e : r.entries) {
      charger.Charge(sizeof(Entry));  // write side
      ENDURE_RETURN_IF_ERROR(builder.Add(e));
    }
  }
  if (builder.empty()) {
    return std::shared_ptr<Run>();  // everything consolidated away
  }
  return builder.Finish();
}

}  // namespace

StatusOr<std::shared_ptr<Run>> MergeRuns(
    PageStore* store, const std::vector<std::shared_ptr<Run>>& inputs,
    double bits_per_entry, bool drop_tombstones, const MergeLimits& limits) {
  ENDURE_CHECK(store != nullptr);
  ENDURE_CHECK(!inputs.empty());
  if (limits.max_subtasks >= 2 && limits.min_pages_to_partition > 0) {
    size_t total_pages = 0;
    for (const auto& r : inputs) total_pages += r->num_pages();
    if (total_pages >= limits.min_pages_to_partition) {
      const std::vector<Key> bounds =
          PickPartitionBounds(inputs, limits.max_subtasks);
      if (!bounds.empty()) {
        return MergePartitioned(store, inputs, bits_per_entry,
                                drop_tombstones, limits, bounds);
      }
    }
  }
  return MergeSequential(store, inputs, bits_per_entry, drop_tombstones,
                         limits.limiter);
}

}  // namespace endure::lsm
