// A small fixed-size thread pool with one FIFO task queue and a
// parallel_for helper, used by the batch-solving engine (src/engine), the
// benchmark sweeps and the parallel fuzz driver.
//
// Design notes (C++ Core Guidelines CP.*): tasks are plain std::function
// thunks; submission after shutdown is a programmer error (asserted); the
// destructor joins all workers (draining any still-queued work first), so
// the pool is exception-safe to scope. parallel_for lets a blocked caller
// help drain the queue (try_run_one): the engine's submitting threads (a
// server's tick workers) run queued items themselves instead of parking,
// and a parallel_for nested in a pool task cannot deadlock. A helping
// caller runs whatever is at the head of the FIFO queue, other callers'
// items included, which is why the engine's one-item entry
// (BatchSolver::solve_item, a reactor's session replan) does not use the
// pool at all.

#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace lrb {

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means std::thread::hardware_concurrency()
  /// (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues a task; the returned future reports completion / exceptions.
  std::future<void> submit(std::function<void()> task);

  /// Runs one queued task on the calling thread if one is immediately
  /// available; returns false when the queue was empty. Lets blocked
  /// submitters contribute cycles instead of parking (see parallel_for).
  bool try_run_one();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::packaged_task<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_task_;
  bool stop_ = false;
};

/// Runs body(i) for i in [begin, end) across the pool's workers, blocking
/// until all iterations complete. Iterations must be independent. The
/// calling thread helps drain the queue while it waits, so nesting
/// parallel_for inside a pool task cannot deadlock.
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body);

}  // namespace lrb
