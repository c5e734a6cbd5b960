#include "util/thread_pool.h"

#include <cassert>
#include <chrono>

namespace lrb {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  auto future = packaged.get_future();
  {
    std::lock_guard lock(mutex_);
    assert(!stop_ && "submit() after shutdown");
    queue_.push(std::move(packaged));
  }
  cv_task_.notify_one();
  return future;
}

bool ThreadPool::try_run_one() {
  std::packaged_task<void()> task;
  {
    std::lock_guard lock(mutex_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop();
  }
  task();
  return true;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();  // exceptions are captured into the packaged_task's future
  }
}

void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body) {
  if (begin >= end) return;
  std::vector<std::future<void>> futures;
  futures.reserve(end - begin);
  for (std::size_t i = begin; i < end; ++i) {
    futures.push_back(pool.submit([i, &body] { body(i); }));
  }
  // Help drain the queue while waiting. Without this, a pool task that
  // itself calls parallel_for would park its worker on futures whose tasks
  // can never be scheduled once every worker is parked the same way, and a
  // submitter would sit idle while its own iterations wait in the queue.
  for (auto& f : futures) {
    while (f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      if (!pool.try_run_one()) {
        // Queue empty: our iteration is running on another thread.
        f.wait();
      }
    }
  }
  for (auto& f : futures) f.get();  // rethrows the first failure
}

}  // namespace lrb
