// Minimal fixed-size worker pool for the batch simulation layer.
//
// One queue, N workers, and a blocking parallel_for that runs its first
// index on the caller. Deliberately small: the batch layer's unit of work
// is a whole vector-stream shard (thousands of executor passes), so
// per-task overhead is irrelevant and work stealing would buy nothing.
// `parallel_for` is a barrier — it returns only when every index has been
// processed — and rethrows the first exception a body raised.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace udsim {

class ThreadPool {
 public:
  /// What shutdown() does with tasks that were queued but never started.
  enum class ShutdownMode : std::uint8_t {
    Drain,   ///< run every pending task to completion, then join
    Cancel,  ///< discard pending tasks (their captured state is destroyed
             ///  on the shutdown caller's thread), join after in-flight
             ///  tasks finish
  };

  /// Spawn `num_threads` workers (0 = all hardware threads).
  explicit ThreadPool(unsigned num_threads = 0);

  /// shutdown(Drain): pending tasks still run, then workers join. The
  /// destructor never abandons a queued task — a task either executes or
  /// was already discarded by an explicit shutdown(Cancel) — so captured
  /// state is always destroyed deterministically, never leaked into a
  /// detached thread (tests/thread_pool_test.cpp destructs under load with
  /// TSAN to hold this).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Stop accepting work and join the workers. Idempotent; after the first
  /// call submit() throws and parallel_for() of n > 0 throws. With Cancel,
  /// tasks still queued are destroyed without running and the number
  /// discarded is returned; with Drain every queued task runs first.
  /// Cancel must not race a parallel_for blocked on this pool (its barrier
  /// tasks would be discarded and the barrier never settle) — Drain, the
  /// destructor's mode, is always safe.
  std::size_t shutdown(ShutdownMode mode = ShutdownMode::Drain);

  /// True once shutdown() has begun (or the destructor is running).
  [[nodiscard]] bool stopped() const noexcept;

  /// Number of worker threads.
  [[nodiscard]] unsigned threads() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Enqueue one task for any worker. Throws std::runtime_error once the
  /// pool is stopped — a silently enqueued-but-never-run task would hold
  /// its captured state (promises, buffers) forever, which is exactly the
  /// lost-request failure mode the service layer must exclude.
  void submit(std::function<void()> task);

  /// Run body(0) … body(n-1) and block until all complete. Index 0 runs on
  /// the calling thread and every other index on a worker, so a pool of
  /// k workers runs k + 1 indices at once, and for n > 1 index 0 always
  /// runs on a different thread from the rest. Indices are queued in order
  /// but may execute concurrently; n == 1 runs inline.
  ///
  /// Fail-fast guarantee: after the first body throws, indices that have
  /// not yet started are skipped rather than executed; the call still
  /// blocks until every queued task has drained, then rethrows the first
  /// exception. Bodies already running when the failure happens run to
  /// completion (there is no preemption).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

  /// std::thread::hardware_concurrency(), never less than 1.
  [[nodiscard]] static unsigned hardware_threads() noexcept;

 private:
  void worker_loop();

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  bool joined_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace udsim
