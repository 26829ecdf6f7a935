#include "util/thread_pool.h"

#include <algorithm>

#include "obs/metrics.h"

namespace epfis {

ThreadPool::ThreadPool(size_t num_threads)
    : ThreadPool(num_threads, Options()) {}

ThreadPool::ThreadPool(size_t num_threads, Options options)
    : options_(options) {
  num_threads = std::max<size_t>(num_threads, 1);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  std::deque<Item> abandoned;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    if (!options_.drain_on_shutdown) abandoned.swap(queue_);
  }
  cv_.notify_all();
  space_cv_.notify_all();
  // Resolve abandoned futures outside the lock: waiters wake to
  // TaskCancelledError instead of blocking on tasks that will never run.
  for (Item& item : abandoned) item.abandon(/*rejected=*/false);
  for (std::thread& worker : workers_) worker.join();
}

size_t ThreadPool::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

void ThreadPool::Enqueue(Item item) {
  static Counter rejected_counter =
      MetricsRegistry::Global().GetCounter("pool.rejected");
  Item displaced;
  bool have_displaced = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!stopping_ && options_.max_queue > 0 &&
        queue_.size() >= options_.max_queue) {
      switch (options_.overflow) {
        case Overflow::kBlock:
          space_cv_.wait(lock, [this] {
            return stopping_ || queue_.size() < options_.max_queue;
          });
          break;
        case Overflow::kReject:
          rejected_tasks_.fetch_add(1, std::memory_order_relaxed);
          lock.unlock();
          rejected_counter.Increment();
          item.abandon(/*rejected=*/true);
          return;
        case Overflow::kShedOldest:
          displaced = std::move(queue_.front());
          queue_.pop_front();
          have_displaced = true;
          rejected_tasks_.fetch_add(1, std::memory_order_relaxed);
          break;
      }
    }
    if (stopping_) {
      lock.unlock();
      if (have_displaced) {
        rejected_counter.Increment();
        displaced.abandon(/*rejected=*/true);
      }
      item.abandon(/*rejected=*/false);
      return;
    }
    queue_.push_back(std::move(item));
  }
  cv_.notify_one();
  if (have_displaced) {
    rejected_counter.Increment();
    displaced.abandon(/*rejected=*/true);
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    Item item;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ with a drained queue.
      item = std::move(queue_.front());
      queue_.pop_front();
    }
    space_cv_.notify_one();
    item.run();  // exceptions land in the task's future.
  }
}

size_t ThreadPool::DefaultThreadCount() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

}  // namespace epfis
