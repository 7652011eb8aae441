// ThreadPool shutdown hardening (ISSUE 7 satellite): destruction under load
// drains deterministically (every queued task runs or was explicitly
// cancelled — captured state is never leaked into a detached thread),
// submit/parallel_for after shutdown throw instead of silently swallowing
// work, and shutdown(Cancel) reports exactly how many queued tasks it
// discarded. Runs in the `threads` label binary so -DUDSIM_TSAN=ON covers
// the teardown races.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/thread_pool.h"

namespace udsim {
namespace {

TEST(ThreadPoolTest, DestructorDrainsEveryQueuedTask) {
  constexpr int kTasks = 200;
  auto ran = std::make_shared<std::atomic<int>>(0);
  {
    ThreadPool pool(4);
    for (int i = 0; i < kTasks; ++i) {
      pool.submit([ran] {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        ran->fetch_add(1, std::memory_order_relaxed);
      });
    }
    // Destruct immediately, with most tasks still queued: Drain mode must
    // run them all before joining.
  }
  EXPECT_EQ(ran->load(), kTasks);
}

TEST(ThreadPoolTest, SubmitAfterShutdownThrows) {
  ThreadPool pool(2);
  EXPECT_FALSE(pool.stopped());
  EXPECT_EQ(pool.shutdown(), 0u);
  EXPECT_TRUE(pool.stopped());
  EXPECT_THROW(pool.submit([] {}), std::runtime_error);
  EXPECT_THROW(pool.parallel_for(4, [](std::size_t) {}), std::runtime_error);
  // A zero-trip loop after shutdown is a no-op, not an error.
  EXPECT_NO_THROW(pool.parallel_for(0, [](std::size_t) {}));
  // Idempotent: a second shutdown is a clean no-op.
  EXPECT_EQ(pool.shutdown(), 0u);
}

TEST(ThreadPoolTest, CancelShutdownDiscardsQueuedTasksDeterministically) {
  ThreadPool pool(1);
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::atomic<int> ran{0};
  // Occupy the single worker, then queue tasks behind it. Wait for the
  // blocker to actually start: only a task already *dequeued* is exempt
  // from the Cancel-mode discard, so the count below is exact.
  pool.submit([&started, gate] {
    started.set_value();
    gate.wait();
  });
  started.get_future().wait();
  constexpr int kQueued = 6;
  for (int i = 0; i < kQueued; ++i) {
    pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  // Cancel-mode shutdown from another thread: it swaps the queue out first
  // (so the count is exact), then blocks joining until the in-flight task
  // finishes.
  std::promise<std::size_t> discarded_p;
  std::thread t([&] {
    discarded_p.set_value(pool.shutdown(ThreadPool::ShutdownMode::Cancel));
  });
  // The queue swap and the stop flag flip in the same critical section, so
  // once stopped() reads true the discard has happened — only then release
  // the in-flight task and let the join finish.
  while (!pool.stopped()) std::this_thread::yield();
  release.set_value();
  t.join();
  EXPECT_EQ(discarded_p.get_future().get(), static_cast<std::size_t>(kQueued));
  EXPECT_EQ(ran.load(), 0) << "cancelled tasks must not run";
}

TEST(ThreadPoolTest, CancelledTaskStateIsDestroyedOnCallerThread) {
  // The captured shared_ptr of a discarded task must be released by
  // shutdown() itself — not leaked, not freed later by a dying worker.
  ThreadPool pool(1);
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  pool.submit([gate] { gate.wait(); });
  auto captured = std::make_shared<int>(7);
  pool.submit([captured] {});
  std::weak_ptr<int> watch = captured;
  captured.reset();
  ASSERT_FALSE(watch.expired()) << "the queued task holds the state";
  std::thread t([&] { (void)pool.shutdown(ThreadPool::ShutdownMode::Cancel); });
  // The discard happens before the join blocks, so the state dies promptly
  // even while the in-flight task is still running.
  const auto until = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!watch.expired() && std::chrono::steady_clock::now() < until) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(watch.expired());
  release.set_value();
  t.join();
}

TEST(ThreadPoolTest, ParallelForSurvivesConcurrentDestructionRace) {
  // Hammer construction/destruction while parallel_for loops run: no UAF
  // on the body, every completed loop saw all its indices (TSAN holds the
  // memory side; the counters hold the logic side).
  for (int round = 0; round < 10; ++round) {
    ThreadPool pool(3);
    std::atomic<int> sum{0};
    pool.parallel_for(32, [&sum](std::size_t) {
      sum.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 32);
  }
}

// parallel_for runs index 0 on the calling thread and every other index on
// a worker, so a two-index loop on a one-worker pool always spans two
// threads (the batch layer's two-thread runs rely on it).
TEST(ThreadPoolTest, ParallelForRunsIndexZeroOnTheCaller) {
  ThreadPool pool(1);
  for (int round = 0; round < 20; ++round) {
    std::vector<std::thread::id> ran_on(2);
    pool.parallel_for(ran_on.size(),
                      [&ran_on](std::size_t i) { ran_on[i] = std::this_thread::get_id(); });
    EXPECT_EQ(ran_on[0], std::this_thread::get_id()) << "round " << round;
    EXPECT_NE(ran_on[1], std::this_thread::get_id()) << "round " << round;
  }
  ThreadPool wide(3);
  std::vector<std::thread::id> ran_on(64);
  wide.parallel_for(ran_on.size(),
                    [&ran_on](std::size_t i) { ran_on[i] = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on[0], std::this_thread::get_id());
  for (std::size_t i = 1; i < ran_on.size(); ++i) {
    EXPECT_NE(ran_on[i], std::this_thread::get_id()) << "index " << i;
  }
}

}  // namespace
}  // namespace udsim
