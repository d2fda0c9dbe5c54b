#include "lsm/compaction.h"

#include <algorithm>

#include "lsm/merge_iterator.h"
#include "lsm/run_builder.h"

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

}  // namespace

StatusOr<std::shared_ptr<Run>> MergeRuns(
    PageStore* store, const std::vector<std::shared_ptr<Run>>& inputs,
    double bits_per_entry, bool drop_tombstones, RateLimiter* limiter) {
  ENDURE_CHECK(store != nullptr);
  ENDURE_CHECK(!inputs.empty());
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

}  // namespace endure::lsm
