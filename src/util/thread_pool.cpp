#include "util/thread_pool.h"

#include <algorithm>
#include <latch>
#include <utility>

namespace wtp::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard lock{mutex_};
    stopping_ = true;
  }
  work_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    const std::lock_guard lock{mutex_};
    queue_.push_back(std::move(task));
  }
  work_available_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock{mutex_};
  idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock{mutex_};
      work_available_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      const std::lock_guard lock{mutex_};
      --active_;
      if (queue_.empty() && active_ == 0) idle_.notify_all();
    }
  }
}

void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  // Shard into contiguous chunks, one per worker, to keep per-task overhead
  // negligible even for large counts while preserving index determinism
  // inside each chunk.  A per-call latch waits for these shards only, so
  // callers sharing one pool do not wait on each other's tasks.
  const std::size_t shards = std::min(count, pool.thread_count() * 4);
  const std::size_t chunk = (count + shards - 1) / shards;
  const std::size_t tasks = (count + chunk - 1) / chunk;
  std::latch done{static_cast<std::ptrdiff_t>(tasks)};
  for (std::size_t t = 0; t < tasks; ++t) {
    const std::size_t begin = t * chunk;
    const std::size_t end = std::min(count, begin + chunk);
    pool.submit([&fn, &done, begin, end] {
      for (std::size_t i = begin; i < end; ++i) fn(i);
      done.count_down();
    });
  }
  done.wait();
}

}  // namespace wtp::util
