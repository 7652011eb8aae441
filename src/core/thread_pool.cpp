#include "core/thread_pool.h"

#include <atomic>
#include <exception>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <utility>

namespace udsim {

unsigned ThreadPool::hardware_threads() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1u : hw;
}

ThreadPool::ThreadPool(unsigned num_threads) {
  if (num_threads == 0) num_threads = hardware_threads();
  workers_.reserve(num_threads);
  for (unsigned i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { shutdown(ShutdownMode::Drain); }

std::size_t ThreadPool::shutdown(ShutdownMode mode) {
  std::deque<std::function<void()>> discarded;
  {
    std::lock_guard lock(mu_);
    stop_ = true;
    if (mode == ShutdownMode::Cancel) discarded.swap(queue_);
  }
  work_cv_.notify_all();
  // Cancelled tasks are destroyed here, outside the lock and on the
  // caller's thread — deterministic destruction order for captured state
  // (a promise in a discarded task is abandoned *now*, not whenever a
  // worker happens to die).
  const std::size_t cancelled = discarded.size();
  discarded.clear();
  {
    std::lock_guard lock(mu_);
    if (joined_) return cancelled;
    joined_ = true;
  }
  for (std::thread& w : workers_) w.join();
  return cancelled;
}

bool ThreadPool::stopped() const noexcept {
  std::lock_guard lock(mu_);
  return stop_;
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mu_);
    if (stop_) {
      throw std::runtime_error(
          "ThreadPool::submit: pool is stopped; the task would never run");
    }
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (n == 1) {
    if (stopped()) {
      throw std::runtime_error(
          "ThreadPool::parallel_for: pool is stopped; the loop would never run");
    }
    body(0);
    return;
  }
  struct Barrier {
    std::mutex mu;
    std::condition_variable done_cv;
    std::size_t remaining;
    std::exception_ptr error;
    std::atomic<bool> failed{false};
  };
  auto barrier = std::make_shared<Barrier>();
  barrier->remaining = n;
  // Fail-fast: once any body has thrown, indices not yet started are
  // skipped (they still count toward the barrier).
  const auto run = [barrier, &body](std::size_t i) {
    try {
      if (!barrier->failed.load(std::memory_order_acquire)) body(i);
    } catch (...) {
      barrier->failed.store(true, std::memory_order_release);
      std::lock_guard lock(barrier->mu);
      if (!barrier->error) barrier->error = std::current_exception();
    }
    std::lock_guard lock(barrier->mu);
    if (--barrier->remaining == 0) barrier->done_cv.notify_all();
  };
  // Indices 1..n-1 join the queue all at once or not at all, so a stopped
  // pool (or a failed allocation) leaves no task referring to this frame.
  std::vector<std::function<void()>> tasks;
  tasks.reserve(n - 1);
  for (std::size_t i = 1; i < n; ++i) tasks.emplace_back([run, i] { run(i); });
  {
    std::lock_guard lock(mu_);
    if (stop_) {
      throw std::runtime_error(
          "ThreadPool::parallel_for: pool is stopped; the loop would never run");
    }
    queue_.insert(queue_.end(), std::make_move_iterator(tasks.begin()),
                  std::make_move_iterator(tasks.end()));
  }
  work_cv_.notify_all();
  run(0);
  std::unique_lock lock(barrier->mu);
  barrier->done_cv.wait(lock, [&] { return barrier->remaining == 0; });
  if (barrier->error) std::rethrow_exception(barrier->error);
}

}  // namespace udsim
