// Minimal fixed-size worker pool for data-parallel fan-out.
//
// The batch-evaluation subsystem needs to sweep large input batches across
// every core without paying thread start-up per call, so the pool keeps its
// workers alive and parked on a condition variable between jobs.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace sw::util {

class ThreadPool {
 public:
  /// `num_threads == 0` selects one thread per CPU in the process's
  /// affinity mask (sched_getaffinity), so a process pinned to one CPU gets
  /// one; where that call fails, std::thread::hardware_concurrency() (at
  /// least 1). By default a single-thread pool runs jobs inline on the
  /// calling thread, so small hosts pay no synchronisation overhead;
  /// `always_spawn` forces a dedicated worker even then, which `post`-based
  /// callers (the evaluator service's request queue) need so submission
  /// stays asynchronous on one-core hosts.
  explicit ThreadPool(std::size_t num_threads = 0, bool always_spawn = false);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return size_; }

  /// Partition [0, n) into contiguous chunks (roughly one per worker) and
  /// run `fn(begin, end)` on each; blocks until every chunk is done.
  /// Exceptions thrown by `fn` are rethrown on the calling thread (the
  /// first one wins; remaining chunks still run to completion).
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& fn);

  /// Work-queue hook: enqueue one job for asynchronous execution and return
  /// without waiting for it. Jobs run in FIFO order relative to other
  /// posted jobs. On an inline pool (no spawned workers) the job runs on
  /// the calling thread before post() returns. The job must not throw —
  /// there is no caller left to receive the exception, so a throwing job
  /// terminates the process; wrap fallible work in its own try/catch.
  void post(std::function<void()> job);

 private:
  void worker_loop();

  std::size_t size_ = 1;
  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> jobs_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::size_t idle_ = 0;  ///< workers parked in wake_.wait (under mutex_)
  bool stop_ = false;
};

}  // namespace sw::util
