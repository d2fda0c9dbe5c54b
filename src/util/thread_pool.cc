#include "util/thread_pool.h"

#include <algorithm>

namespace endure {

ThreadPool::ThreadPool(size_t num_threads) {
  ENDURE_CHECK(num_threads >= 1);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Shutdown() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  ENDURE_CHECK_MSG(TrySubmit(std::move(task)), "Submit after shutdown");
}

bool ThreadPool::TrySubmit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (shutting_down_) return false;
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  work_available_.notify_one();
  return true;
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(
          lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutting down, queue drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (--in_flight_ == 0) all_done_.notify_all();
    }
  }
}

size_t DefaultParallelism() {
  return std::max(1u, std::thread::hardware_concurrency());
}

void ParallelFor(size_t n, size_t max_threads,
                 const std::function<void(size_t)>& fn) {
  if (n <= 1 || max_threads <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  ThreadPool pool(std::min(n, max_threads));
  for (size_t i = 0; i < n; ++i) {
    pool.Submit([&fn, i] { fn(i); });
  }
  pool.Wait();
}

}  // namespace endure
