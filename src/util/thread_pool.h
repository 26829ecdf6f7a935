#ifndef EPFIS_UTIL_THREAD_POOL_H_
#define EPFIS_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/cancel.h"

namespace epfis {

/// Small fixed-size worker pool used by the parallel statistics-collection
/// pipeline (parallel stack-distance sharding and RunLruFitBatch).
///
/// Tasks are arbitrary callables; Submit returns a std::future carrying the
/// task's result. Exceptions thrown by a task are captured in its future
/// and rethrown from future::get(), so a worker thread never dies from a
/// task failure.
///
/// Queue bounding (overload protection): with Options::max_queue > 0 the
/// pending queue is bounded and Options::overflow picks the backpressure
/// policy when a Submit finds it full:
///   kBlock      — the submitting thread waits for a slot (flow control
///                 toward the producer; the default).
///   kReject     — the new task never runs; its future throws
///                 PoolRejectedError (drain sites map it to kUnavailable).
///                 Submit itself still returns normally.
///   kShedOldest — the oldest *queued* (unstarted) task is displaced and
///                 its future throws PoolRejectedError; the new task takes
///                 its slot. Freshest-work-wins, for serving paths.
/// max_queue == 0 keeps the historical unbounded queue.
///
/// Shutdown: with drain_on_shutdown (default) the destructor drains the
/// queue — every task submitted before destruction runs to completion —
/// then joins the workers. With drain_on_shutdown = false, queued-but-
/// unstarted tasks are abandoned: their futures throw TaskCancelledError
/// and the destructor returns as soon as in-flight tasks finish.
/// Submitting after destruction has begun is a programming error; such
/// tasks are abandoned as cancelled rather than lost.
///
/// Do not block a pool task on the future of another task submitted to the
/// same pool: with all workers blocked waiting, the dependency can never be
/// scheduled (classic nested-parallelism deadlock). RunLruFitBatch forces
/// per-trace computation serial for exactly this reason. The same applies
/// to Overflow::kBlock from within a pool task — a full queue would wait
/// on the workers that are doing the waiting.
class ThreadPool {
 public:
  enum class Overflow {
    kBlock = 0,
    kReject,
    kShedOldest,
  };

  struct Options {
    /// Maximum queued (unstarted) tasks; 0 means unbounded.
    size_t max_queue = 0;

    /// What Submit does when the bounded queue is full.
    Overflow overflow = Overflow::kBlock;

    /// Destructor policy: true runs every queued task to completion;
    /// false abandons unstarted tasks (futures throw TaskCancelledError).
    bool drain_on_shutdown = true;
  };

  /// Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(size_t num_threads);
  ThreadPool(size_t num_threads, Options options);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Joins all workers; queued tasks drain or are abandoned per
  /// Options::drain_on_shutdown.
  ~ThreadPool();

  /// Schedules `f` and returns a future for its result. Never throws for
  /// queue reasons: a rejected or shed task reports through its future.
  template <typename F>
  auto Submit(F f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto promise = std::make_shared<std::promise<R>>();
    std::future<R> result = promise->get_future();
    auto fn = std::make_shared<F>(std::move(f));
    Item item;
    item.run = [promise, fn] {
      try {
        if constexpr (std::is_void_v<R>) {
          (*fn)();
          promise->set_value();
        } else {
          promise->set_value((*fn)());
        }
      } catch (...) {
        promise->set_exception(std::current_exception());
      }
    };
    item.abandon = [promise](bool rejected) {
      try {
        if (rejected) {
          throw PoolRejectedError("task shed: thread pool queue full");
        }
        throw TaskCancelledError("task cancelled before it started");
      } catch (...) {
        promise->set_exception(std::current_exception());
      }
    };
    Enqueue(std::move(item));
    return result;
  }

  size_t num_threads() const { return workers_.size(); }

  /// Tasks whose future resolved to PoolRejectedError (kReject submissions
  /// plus kShedOldest displacements) on this pool.
  uint64_t rejected_tasks() const {
    return rejected_tasks_.load(std::memory_order_relaxed);
  }

  /// Currently queued (unstarted) tasks; advisory, races with workers.
  size_t queue_depth() const;

  /// Hardware concurrency, never less than 1.
  static size_t DefaultThreadCount();

 private:
  struct Item {
    std::function<void()> run;
    /// Resolves the task's future without running it; `rejected` picks
    /// PoolRejectedError over TaskCancelledError.
    std::function<void(bool rejected)> abandon;
  };

  void Enqueue(Item item);
  void WorkerLoop();

  const Options options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;        // workers wait for tasks
  std::condition_variable space_cv_;  // kBlock submitters wait for a slot
  std::deque<Item> queue_;            // Guarded by mu_.
  bool stopping_ = false;             // Guarded by mu_.
  std::atomic<uint64_t> rejected_tasks_{0};
  std::vector<std::thread> workers_;
};

}  // namespace epfis

#endif  // EPFIS_UTIL_THREAD_POOL_H_
