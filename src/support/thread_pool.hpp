// A small fixed-size thread pool. A product-line session uses it to derive
// and check its units concurrently; workers pull tasks from one
// queue, and wait_idle() gives the submitting thread a barrier. Tasks must
// not throw — wrap fallible work with parallel_for, which captures the
// first exception and rethrows it on the caller.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace llhsc::support {

class ThreadPool {
 public:
  /// Spawns `threads` workers (clamped to at least 1; 0 selects the
  /// hardware concurrency).
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues one task. Tasks may submit further tasks.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task (including tasks submitted by tasks)
  /// has finished.
  void wait_idle();

  [[nodiscard]] unsigned size() const {
    return static_cast<unsigned>(workers_.size());
  }

  /// The pool size `jobs` resolves to: 0 means hardware concurrency.
  [[nodiscard]] static unsigned resolve_jobs(unsigned jobs);

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  size_t in_flight_ = 0;  // queued + running tasks
  bool stopping_ = false;
};

/// Runs fn(0), ..., fn(count - 1) across the pool and blocks until all
/// calls return. The first exception thrown by any call is rethrown on the
/// caller (remaining indices still run to completion).
void parallel_for(ThreadPool& pool, size_t count,
                  const std::function<void(size_t)>& fn);

}  // namespace llhsc::support
