#include "util/thread_pool.h"

#include <algorithm>
#include <exception>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

namespace sw::util {

namespace {

/// The CPUs this process may run on: its affinity mask's count, which
/// hardware_concurrency() ignores (it reads every online CPU).
std::size_t default_thread_count() {
#if defined(__linux__)
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&mask)));
  }
#endif
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads, bool always_spawn) {
  if (num_threads == 0) num_threads = default_thread_count();
  size_ = num_threads;
  if (size_ == 1 && !always_spawn) return;  // inline mode: no workers, no locking
  workers_.reserve(size_);
  try {
    for (std::size_t i = 0; i < size_; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    // Partial spawn (e.g. EAGAIN): shut down the workers that did start
    // before rethrowing, or their joinable destructors would terminate().
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    for (auto& w : workers_) w.join();
    throw;
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ++idle_;
      wake_.wait(lock, [this] { return stop_ || !jobs_.empty(); });
      --idle_;
      if (jobs_.empty()) {
        if (stop_) return;
        continue;
      }
      job = std::move(jobs_.front());
      jobs_.pop();
    }
    job();
  }
}

void ThreadPool::post(std::function<void()> job) {
  if (workers_.empty()) {
    job();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    jobs_.push(std::move(job));
    // Wake elision: a non-idle worker is either running a job or between
    // its decrement and the pop, and in both cases re-checks the queue
    // under the mutex before it can sleep — so when nobody is parked the
    // (futex-priced) notify is provably unnecessary.
    if (idle_ == 0) return;
  }
  wake_.notify_one();
}

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    fn(0, n);
    return;
  }

  const std::size_t chunks = std::min(size_, n);
  const std::size_t base = n / chunks;
  const std::size_t extra = n % chunks;
  std::vector<std::pair<std::size_t, std::size_t>> bounds;
  bounds.reserve(chunks);
  for (std::size_t c = 0, begin = 0; c < chunks; ++c) {
    const std::size_t end = begin + base + (c < extra ? 1 : 0);
    bounds.emplace_back(begin, end);
    begin = end;
  }

  // done_mutex guards `remaining` and `first_error`; the decrement must
  // happen under the lock so the caller cannot observe remaining == 0 and
  // unwind these stack locals while a worker is still about to touch them.
  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::size_t remaining = chunks;
  std::exception_ptr first_error;

  const auto run_chunk = [&](std::size_t begin, std::size_t end) {
    std::exception_ptr error;
    try {
      fn(begin, end);
    } catch (...) {
      error = std::current_exception();
    }
    std::lock_guard<std::mutex> dlock(done_mutex);
    if (error && !first_error) first_error = error;
    if (--remaining == 0) done_cv.notify_one();
  };

  // Enqueue what allocation allows; chunks that fail to enqueue run inline
  // on the caller below, so a bad_alloc mid-enqueue degrades to less
  // parallelism instead of unwinding stack state the queued jobs reference.
  std::size_t enqueued = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    try {
      for (; enqueued < chunks; ++enqueued) {
        const auto [b, e] = bounds[enqueued];
        jobs_.push([&run_chunk, b, e] { run_chunk(b, e); });
      }
    } catch (...) {
    }
  }
  wake_.notify_all();
  for (std::size_t c = enqueued; c < chunks; ++c) {
    run_chunk(bounds[c].first, bounds[c].second);
  }

  std::unique_lock<std::mutex> lock(done_mutex);
  done_cv.wait(lock, [&] { return remaining == 0; });
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace sw::util
