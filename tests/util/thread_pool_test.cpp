#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <numeric>
#include <thread>
#include <vector>

namespace wtp::util {
namespace {

TEST(ThreadPool, ExecutesSubmittedTasks) {
  ThreadPool pool{2};
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturnsImmediately) {
  ThreadPool pool{1};
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, DefaultsToAtLeastOneThread) {
  ThreadPool pool{0};
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, DestructorDrainsOutstandingWork) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool{2};
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] {
        std::this_thread::sleep_for(std::chrono::microseconds{100});
        counter.fetch_add(1, std::memory_order_relaxed);
      });
    }
  }  // destructor joins
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, TasksRunAfterWaitIdleCanBeSubmittedAgain) {
  ThreadPool pool{2};
  std::atomic<int> counter{0};
  pool.submit([&counter] { ++counter; });
  pool.wait_idle();
  pool.submit([&counter] { ++counter; });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  ThreadPool pool{4};
  constexpr std::size_t kCount = 10000;
  std::vector<std::atomic<int>> visits(kCount);
  parallel_for(pool, kCount, [&visits](std::size_t i) {
    visits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, ZeroCountIsNoop) {
  ThreadPool pool{2};
  bool called = false;
  parallel_for(pool, 0, [&called](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, SingleElement) {
  ThreadPool pool{3};
  int value = 0;
  parallel_for(pool, 1, [&value](std::size_t i) { value = static_cast<int>(i) + 42; });
  EXPECT_EQ(value, 42);
}

TEST(ParallelFor, ResultsMatchSequentialComputation) {
  ThreadPool pool{4};
  constexpr std::size_t kCount = 1000;
  std::vector<double> results(kCount, 0.0);
  parallel_for(pool, kCount, [&results](std::size_t i) {
    results[i] = static_cast<double>(i) * static_cast<double>(i);
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(results[i], static_cast<double>(i) * static_cast<double>(i));
  }
}

TEST(ParallelFor, WaitsOnlyForItsOwnTasks) {
  ThreadPool pool{2};
  std::promise<void> blocker_started;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  pool.submit([&blocker_started, released] {
    blocker_started.set_value();
    released.wait();
  });
  blocker_started.get_future().wait();

  std::atomic<std::size_t> visited{0};
  auto call = std::async(std::launch::async, [&pool, &visited] {
    parallel_for(pool, 64, [&visited](std::size_t) {
      visited.fetch_add(1, std::memory_order_relaxed);
    });
  });
  // The other caller's task is still blocked, so a parallel_for that waited
  // on the whole pool would not return within the bound.
  const auto status = call.wait_for(std::chrono::seconds{10});
  release.set_value();
  call.get();
  EXPECT_EQ(status, std::future_status::ready);
  EXPECT_EQ(visited.load(), 64u);
  pool.wait_idle();
}

}  // namespace
}  // namespace wtp::util
