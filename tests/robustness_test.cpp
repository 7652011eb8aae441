// Failure-path robustness: batch input validation across every engine
// and worker-exception propagation through the thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/simulator.h"
#include "core/thread_pool.h"
#include "resilience/resilient_run.h"
#include "test_util.h"

namespace udsim {
namespace {

constexpr EngineKind kAllEngines[] = {
    EngineKind::Event2,
    EngineKind::Event3,
    EngineKind::PCSet,
    EngineKind::Parallel,
    EngineKind::ParallelTrimmed,
    EngineKind::ParallelPathTracing,
    EngineKind::ParallelCycleBreaking,
    EngineKind::ParallelCombined,
    EngineKind::ZeroDelayLcc,
};

// Runs `run` and expects std::invalid_argument naming every one of `sizes`.
template <class Run>
void expect_stream_rejected(Run run, const std::string& what,
                            std::initializer_list<const char*> sizes) {
  try {
    run();
    ADD_FAILURE() << "expected std::invalid_argument from " << what;
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    for (const char* size : sizes) {
      EXPECT_NE(msg.find(size), std::string::npos) << what << ": " << msg;
    }
  }
}

// A stream whose size is not a multiple of the PI count must raise
// std::invalid_argument naming both sizes — on every engine and through
// both batch entry points, before any simulation work happens.
TEST(RunBatchValidation, RaggedStreamThrowsWithActualSizes) {
  const Netlist nl = test::fig4_network();  // 3 primary inputs
  const std::vector<Bit> ragged(7, 0);      // 7 % 3 != 0
  for (EngineKind kind : kAllEngines) {
    const auto sim = make_simulator(nl, kind);
    const std::string name(engine_name(kind));
    expect_stream_rejected([&] { (void)sim->run_batch(ragged); }, name,
                           {"7", "3"});
    expect_stream_rejected([&] { (void)run_batch_resilient(*sim, ragged); },
                           name + " (resilient)", {"7", "3"});
  }
}

TEST(RunBatchValidation, StreamForInputlessNetlistThrows) {
  Netlist nl("const");
  const NetId y = nl.add_net("y");
  nl.add_gate(GateType::Const1, {}, y);
  nl.mark_primary_output(y);
  const std::vector<Bit> spurious(5, 1);
  for (EngineKind kind : kAllEngines) {
    // The unoptimized parallel emitter cannot compile an input-less
    // constant netlist at all (its uniform alignment demands a left shift
    // reaching before the previous vector) — a long-standing limitation
    // unrelated to stream validation, so those two kinds sit this one out.
    if (kind == EngineKind::Parallel || kind == EngineKind::ParallelTrimmed) {
      continue;
    }
    const auto sim = make_simulator(nl, kind);
    const std::string name(engine_name(kind));
    expect_stream_rejected([&] { (void)sim->run_batch(spurious); }, name,
                           {"5"});
    expect_stream_rejected([&] { (void)run_batch_resilient(*sim, spurious); },
                           name + " (resilient)", {"5"});
    // The empty stream is the one valid stream here.
    const BatchResult r = sim->run_batch({});
    EXPECT_EQ(r.vectors, 0u);
    EXPECT_EQ(run_batch_resilient(*sim, {}).batch.vectors, 0u);
  }
}

TEST(RunBatchValidation, MultipleOfPiCountStillWorks) {
  const Netlist nl = test::fig4_network();
  const std::vector<Bit> ok = {1, 1, 0, 1, 1, 1};
  for (EngineKind kind : kAllEngines) {
    const auto sim = make_simulator(nl, kind);
    const BatchResult r = sim->run_batch(ok);
    EXPECT_EQ(r.vectors, 2u) << engine_name(kind);
  }
}

// ---- worker-exception propagation ------------------------------------------

// A body that throws mid-shard: the exception surfaces on the caller
// exactly once, every index is either processed or abandoned cleanly (no
// deadlock), and the pool stays usable afterwards.
TEST(ThreadPoolExceptions, MidShardFailureRethrowsOnCallerExactlyOnce) {
  ThreadPool pool(4);
  ASSERT_EQ(pool.threads(), 4u);

  std::atomic<int> processed{0};
  int caught = 0;
  try {
    pool.parallel_for(64, [&](std::size_t i) {
      if (i == 13) throw std::runtime_error("shard 13 failed");
      processed.fetch_add(1, std::memory_order_relaxed);
    });
  } catch (const std::runtime_error& e) {
    ++caught;
    EXPECT_STREQ(e.what(), "shard 13 failed");
  }
  EXPECT_EQ(caught, 1);
  EXPECT_LT(processed.load(), 64);

  // The pool survives: a clean run right after completes fully.
  std::atomic<int> after{0};
  pool.parallel_for(64, [&](std::size_t) {
    after.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(after.load(), 64);
}

// Several failing shards: still exactly one exception per parallel_for call
// (the first one wins), and repeated failing calls each report once.
TEST(ThreadPoolExceptions, ManyFailuresStillSurfaceOnce) {
  ThreadPool pool(3);
  for (int round = 0; round < 3; ++round) {
    int caught = 0;
    try {
      pool.parallel_for(32, [&](std::size_t i) {
        if (i % 2 == 0) throw std::runtime_error("even shard");
      });
    } catch (const std::runtime_error&) {
      ++caught;
    }
    EXPECT_EQ(caught, 1) << "round " << round;
  }
  // And a final clean barrier proves the workers are all alive.
  std::atomic<int> n{0};
  pool.parallel_for(8, [&](std::size_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 8);
}

// Fail-fast: once any body throws, remaining unclaimed indices are skipped
// (they still count toward the barrier but their bodies never run). Every
// body that runs throws, so each thread sets the flag before it can claim a
// second index: at most one body per worker plus one on the caller, however
// the threads are scheduled. Bodies after the first wait (bounded) until
// the first throw, so the ones that run are in flight when it happens.
TEST(ThreadPoolExceptions, FailFastSkipsUnclaimedIndices) {
  ThreadPool pool(4);
  const std::size_t n = 100000;
  std::atomic<std::size_t> processed{0};
  std::atomic<bool> first{true};
  std::atomic<bool> thrown{false};
  EXPECT_THROW(
      pool.parallel_for(n,
                        [&](std::size_t) {
                          processed.fetch_add(1, std::memory_order_relaxed);
                          if (!first.exchange(false)) {
                            const auto until = std::chrono::steady_clock::now() +
                                               std::chrono::seconds(10);
                            while (!thrown.load() &&
                                   std::chrono::steady_clock::now() < until) {
                              std::this_thread::yield();
                            }
                          }
                          thrown.store(true);
                          throw std::runtime_error("fail fast");
                        }),
      std::runtime_error);
  EXPECT_GE(processed.load(), 1u);
  EXPECT_LE(processed.load(), std::size_t{pool.threads()} + 1)
      << "fail-fast did not short-circuit the remaining indices";
  // The pool is still healthy afterwards.
  std::atomic<std::size_t> clean{0};
  pool.parallel_for(16, [&](std::size_t) { clean.fetch_add(1); });
  EXPECT_EQ(clean.load(), 16u);
}

// A one-worker pool runs index 0 on the caller and the rest on its worker;
// a throw from either side propagates, and the pool stays usable.
TEST(ThreadPoolExceptions, InlinePathPropagates) {
  ThreadPool pool(1);
  EXPECT_THROW(
      pool.parallel_for(4,
                        [](std::size_t i) {
                          if (i == 2) throw std::logic_error("inline");
                        }),
      std::logic_error);
  std::atomic<int> n{0};
  pool.parallel_for(4, [&](std::size_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 4);
}

}  // namespace
}  // namespace udsim
