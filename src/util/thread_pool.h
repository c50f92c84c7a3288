// Fixed-size worker pool used to parallelize grid searches and per-user model
// training.  Tasks are type-erased std::function<void()>; parallel_for
// provides a deterministic index-sharded helper on top.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace wtp::util {

/// A minimal but robust thread pool.
///
/// Guarantees:
///  * submit() never blocks except briefly on the queue mutex.
///  * wait_idle() returns once every submitted task has finished.
///  * The destructor drains outstanding tasks before joining.
/// Exceptions escaping a task terminate (tasks are expected to capture and
/// report their own failures; experiment code stores per-task results).
class ThreadPool {
 public:
  /// Creates `threads` workers (defaults to hardware concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution on some worker.
  void submit(std::function<void()> task);

  /// Blocks until the queue is empty and no worker is running a task.
  void wait_idle();

  [[nodiscard]] std::size_t thread_count() const noexcept { return workers_.size(); }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::size_t active_ = 0;
  bool stopping_ = false;
};

/// Runs fn(i) for every i in [0, count) across the pool and waits for all of
/// them, and only for them: tasks other callers submitted to the same pool
/// may still be running when it returns.  fn must be safe to call
/// concurrently for distinct indices.
void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& fn);

}  // namespace wtp::util
