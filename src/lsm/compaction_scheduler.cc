// Copyright (c) endure-cpp authors. Licensed under the MIT license.

#include "lsm/compaction_scheduler.h"

#include <algorithm>
#include <utility>

#include "util/thread_pool.h"

namespace endure::lsm {

CompactionScheduler::CompactionScheduler(ThreadPool* pool,
                                         const Config& config,
                                         Statistics* stats)
    : pool_(pool),
      max_parallel_(std::max<size_t>(1, config.max_parallel)),
      stats_(stats),
      limiter_(config.rate_bytes_per_sec) {
  timer_ = std::thread([this] { TimerLoop(); });
}

CompactionScheduler::~CompactionScheduler() { Stop(); }

bool CompactionScheduler::Enqueue(int priority, std::function<void()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopped_.load(std::memory_order_relaxed)) return false;
  ready_.push_back(Job{priority, next_seq_++, std::move(fn)});
  std::push_heap(ready_.begin(), ready_.end(), ReadyAfter);
  ++active_;
  if (stats_ != nullptr) {
    ++stats_->sched_jobs;
    // Gauge: only this thread (under mu_) ever raises it, so the
    // read-compare-store is race-free despite the relaxed counter.
    if (ready_.size() > stats_->sched_queue_peak.load()) {
      stats_->sched_queue_peak = ready_.size();
    }
  }
  DispatchLocked();
  return true;
}

bool CompactionScheduler::EnqueueDelayed(int priority, uint64_t delay_ms,
                                         std::function<void()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopped_.load(std::memory_order_relaxed)) return false;
  DelayedJob d;
  d.deadline = std::chrono::steady_clock::now() +
               std::chrono::milliseconds(delay_ms);
  d.job = Job{priority, next_seq_++, std::move(fn)};
  delayed_.push_back(std::move(d));
  std::push_heap(delayed_.begin(), delayed_.end(), DelayedAfter);
  ++active_;
  if (stats_ != nullptr) ++stats_->sched_requeues;
  timer_cv_.notify_one();
  return true;
}

void CompactionScheduler::DispatchLocked() {
  while (!stopped_.load(std::memory_order_relaxed) &&
         in_pool_ < max_parallel_ && !ready_.empty()) {
    std::pop_heap(ready_.begin(), ready_.end(), ReadyAfter);
    Job job = std::move(ready_.back());
    ready_.pop_back();
    ++in_pool_;
    // shared_ptr because std::function requires copyable callables.
    auto fn = std::make_shared<std::function<void()>>(std::move(job.fn));
    if (!pool_->TrySubmit([this, fn] {
          (*fn)();
          OnJobFinished();
        })) {
      // Pool shutting down: the owner is tearing us down too, drop it.
      --in_pool_;
      --active_;
      idle_cv_.notify_all();
      return;
    }
  }
}

void CompactionScheduler::OnJobFinished() {
  std::lock_guard<std::mutex> lock(mu_);
  --in_pool_;
  --active_;
  DispatchLocked();
  if (active_ == 0) idle_cv_.notify_all();
}

void CompactionScheduler::TimerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopped_.load(std::memory_order_relaxed)) {
    if (delayed_.empty()) {
      timer_cv_.wait(lock);
      continue;
    }
    const auto now = std::chrono::steady_clock::now();
    // A copy, not a reference into delayed_: the wait releases the lock,
    // and an EnqueueDelayed meanwhile may reallocate the heap's storage.
    const auto deadline = delayed_.front().deadline;
    if (deadline > now) {
      timer_cv_.wait_until(lock, deadline);
      continue;
    }
    while (!delayed_.empty() && delayed_.front().deadline <= now) {
      std::pop_heap(delayed_.begin(), delayed_.end(), DelayedAfter);
      Job job = std::move(delayed_.back().job);
      delayed_.pop_back();
      ready_.push_back(std::move(job));
      std::push_heap(ready_.begin(), ready_.end(), ReadyAfter);
      if (stats_ != nullptr &&
          ready_.size() > stats_->sched_queue_peak.load()) {
        stats_->sched_queue_peak = ready_.size();
      }
    }
    DispatchLocked();
  }
}

void CompactionScheduler::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return active_ == 0; });
}

void CompactionScheduler::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_.exchange(true, std::memory_order_acq_rel)) return;
    active_ -= ready_.size() + delayed_.size();
    ready_.clear();
    delayed_.clear();
    timer_cv_.notify_all();
    if (active_ == 0) idle_cv_.notify_all();
  }
  limiter_.Stop();
  if (timer_.joinable()) timer_.join();
}

}  // namespace endure::lsm
