#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

namespace epfis {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasksToCompletion) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3u);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, SubmitReturnsTaskResult) {
  ThreadPool pool(2);
  auto f = pool.Submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
  auto g = pool.Submit([] { return std::string("ok"); });
  EXPECT_EQ(g.get(), "ok");
}

TEST(ThreadPoolTest, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  EXPECT_EQ(pool.Submit([] { return 1; }).get(), 1);
}

TEST(ThreadPoolTest, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.Submit([]() -> int {
    throw std::runtime_error("task failed");
  });
  EXPECT_THROW(f.get(), std::runtime_error);
  // The worker that ran the throwing task is still alive.
  EXPECT_EQ(pool.Submit([] { return 7; }).get(), 7);
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&counter] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ++counter;
      });
    }
    // Destructor must run all 20 queued tasks before joining.
  }
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPoolTest, TasksRunConcurrentlyAcrossWorkers) {
  // Two tasks that each wait for the other prove two workers are live.
  ThreadPool pool(2);
  std::atomic<int> arrived{0};
  auto rendezvous = [&arrived] {
    ++arrived;
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (arrived.load() < 2) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::yield();
    }
    return true;
  };
  auto a = pool.Submit(rendezvous);
  auto b = pool.Submit(rendezvous);
  EXPECT_TRUE(a.get());
  EXPECT_TRUE(b.get());
}

TEST(ThreadPoolTest, DefaultThreadCountIsPositive) {
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1u);
}

TEST(ThreadPoolShutdownTest, DrainingDestructorStillRunsEverything) {
  // Every task submitted before destruction runs to completion.
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) pool.Submit([&ran] { ++ran; });
  }
  EXPECT_EQ(ran.load(), 50);
}

// Submit racing destruction: a task running on the pool's only worker
// waits until the owner is about to destroy the pool, then submits until
// a future comes back cancelled. With the only worker busy, a queued task
// cannot be ready yet, so a ready future is exactly a refused one. Every
// task queued before the refusal must still run during the drain. How
// many submits land before the destructor sets its stop flag varies from
// run to run; the outcome does not.
TEST(ThreadPoolShutdownTest, SubmitDuringDestructionIsCancelledAfterDrain) {
  auto pool = std::make_unique<ThreadPool>(1);
  ThreadPool* raw = pool.get();  // unique_ptr::reset nulls `pool` first.
  std::promise<void> running;
  std::promise<void> destroying;
  std::shared_future<void> destroying_signal =
      destroying.get_future().share();
  std::vector<std::future<int>> accepted;  // Written only by the task.
  std::future<int> refused;
  std::future<void> submitter = raw->Submit([&] {
    for (int i = 0; i < 3; ++i) accepted.push_back(raw->Submit([i] {
      return i;
    }));
    running.set_value();
    destroying_signal.wait();
    for (;;) {
      int next = static_cast<int>(accepted.size());
      std::future<int> f = raw->Submit([next] { return next; });
      if (f.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
        refused = std::move(f);
        return;
      }
      accepted.push_back(std::move(f));
    }
  });
  running.get_future().wait();
  destroying.set_value();
  pool.reset();  // Drains the queue and joins the worker.

  submitter.get();
  ASSERT_TRUE(refused.valid());
  EXPECT_THROW(refused.get(), TaskCancelledError);
  ASSERT_GE(accepted.size(), 3u);
  for (size_t i = 0; i < accepted.size(); ++i) {
    EXPECT_EQ(accepted[i].get(), static_cast<int>(i));
  }
}

}  // namespace
}  // namespace epfis
