// Batch-layer determinism properties: BatchRunner output is bit-identical
// for every thread count and equal to a sequential KernelRunner replay, over
// random DAGs with fixed seeds — the guarantee DESIGN.md §5c states.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <vector>

#include "core/batch_runner.h"
#include "core/simulator.h"
#include "core/thread_pool.h"
#include "core/width_dispatch.h"
#include "gen/random_dag.h"
#include "harness/vectors.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "lcc/lcc.h"
#include "parsim/parallel_sim.h"
#include "pcsim/pcset_sim.h"

namespace udsim {
namespace {

std::vector<unsigned> thread_counts() {
  return {1u, 2u, 5u, ThreadPool::hardware_threads()};
}

Netlist test_dag(std::uint64_t seed, int max_delay = 1) {
  RandomDagParams p;
  p.name = "batch" + std::to_string(seed);
  p.inputs = 8;
  p.outputs = 6;
  p.gates = 150;
  p.depth = 10;
  p.seed = seed;
  p.reach = 1.6;
  p.max_delay = max_delay;
  return random_dag(p);
}

/// Row-major input matrix: one 0/1 Bit per PI per vector.
std::vector<Bit> random_inputs(std::size_t pis, std::size_t count,
                               std::uint64_t seed) {
  RandomVectorSource src(pis, seed);
  std::vector<Bit> in(pis * count);
  for (std::size_t v = 0; v < count; ++v) {
    src.next(std::span<Bit>(in.data() + v * pis, pis));
  }
  return in;
}

template <class Word>
std::vector<Bit> sequential_replay(const Program& p,
                                   const std::vector<ArenaProbe>& probes,
                                   const std::vector<Bit>& in,
                                   std::size_t count) {
  KernelRunner<Word> runner(p);
  std::vector<Word> row(p.input_words);
  std::vector<Bit> out;
  out.reserve(count * probes.size());
  for (std::size_t v = 0; v < count; ++v) {
    for (std::size_t i = 0; i < p.input_words; ++i) {
      row[i] = static_cast<Word>(in[v * p.input_words + i]);
    }
    runner.run(row);
    for (const ArenaProbe& pr : probes) out.push_back(runner.bit(pr.word, pr.bit));
  }
  return out;
}

template <class Word>
void expect_batch_matches_sequential(const Program& program,
                                     const std::vector<ArenaProbe>& probes,
                                     const Netlist& nl, std::size_t count,
                                     std::uint64_t vec_seed,
                                     const char* what) {
  const auto in = random_inputs(nl.primary_inputs().size(), count, vec_seed);
  const auto expect = sequential_replay<Word>(program, probes, in, count);
  for (unsigned nt : thread_counts()) {
    BatchRunner batch(program, probes, BatchOptions{.num_threads = nt});
    const auto got = batch.run(in, count);
    ASSERT_EQ(expect, got) << what << " differs from sequential replay at "
                           << nt << " threads (" << nl.name() << ")";
  }
}

std::vector<ArenaProbe> parallel_probes(const ParallelCompiled& c,
                                        const Netlist& nl) {
  std::vector<ArenaProbe> probes;
  for (NetId po : nl.primary_outputs()) {
    const auto pr = c.final_probe(po);
    probes.push_back({pr.word, pr.bit});
  }
  return probes;
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(64,
                                 [](std::size_t i) {
                                   if (i == 17) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool must still be usable after a failed batch.
  std::atomic<int> sum{0};
  pool.parallel_for(8, [&](std::size_t) { sum.fetch_add(1); });
  EXPECT_EQ(sum.load(), 8);
}

TEST(BatchRunner, ParallelVariantsBitIdenticalAcrossThreadCounts) {
  const ParallelOptions variants[] = {
      {},
      {.trimming = true},
      {.shift_elim = ShiftElim::PathTracing},
      {.shift_elim = ShiftElim::CycleBreaking},
      {.trimming = true, .shift_elim = ShiftElim::PathTracing},
  };
  for (std::uint64_t seed : {11ull, 12ull, 13ull}) {
    const Netlist nl = test_dag(seed);
    for (const ParallelOptions& opt : variants) {
      const ParallelCompiled c = compile_parallel(nl, opt);
      expect_batch_matches_sequential<std::uint32_t>(
          c.program, parallel_probes(c, nl), nl, 257, seed * 977,
          "parallel program");
    }
  }
}

// Shards run on pool threads yet carry the caller's request trace id: the
// thread-local RequestTraceScope is the only carrier, re-entered per shard.
TEST(BatchRunner, ShardSpansCarryTheCallersRequestId) {
  const Netlist nl = test_dag(31);
  const ParallelCompiled c = compile_parallel(nl, {});
  const std::size_t count = 200;
  const auto in = random_inputs(nl.primary_inputs().size(), count, 3131);
  // The "request" arg of every batch.shard span (0 when absent).
  const auto shard_requests = [&](RequestTraceId scope_id) {
    MetricsRegistry reg;
    BatchOptions options;
    options.num_threads = 3;
    options.metrics = &reg;
    BatchRunner runner(c.program, parallel_probes(c, nl), options);
    {
      RequestTraceScope scope(scope_id);
      (void)runner.run(in, count);
    }
    std::vector<std::uint64_t> requests;
    for (const TraceEvent& e : reg.trace_events()) {
      if (e.name != "batch.shard") continue;
      std::uint64_t request = 0;
      for (const auto& [k, v] : e.args) {
        if (k == "request") request = v;
      }
      requests.push_back(request);
    }
    return requests;
  };
  EXPECT_EQ(shard_requests(42), std::vector<std::uint64_t>(3, 42));
  EXPECT_EQ(shard_requests(0), std::vector<std::uint64_t>(3, 0));
  EXPECT_EQ(current_request_trace_id(), 0u) << "scope leaked past the run";
}

TEST(BatchRunner, PCSetProgramBitIdenticalAcrossThreadCounts) {
  for (std::uint64_t seed : {21ull, 22ull}) {
    const Netlist nl = test_dag(seed);
    const PCSetCompiled c = compile_pcset(nl);
    std::vector<ArenaProbe> probes;
    for (NetId po : nl.primary_outputs()) probes.push_back({c.final_var(po), 0});
    expect_batch_matches_sequential<std::uint32_t>(c.program, probes, nl, 201,
                                                   seed * 977, "PC-set program");
  }
}

TEST(BatchRunner, LccProgramBitIdenticalAcrossThreadCounts) {
  const Netlist nl = test_dag(31);
  const LccCompiled c = compile_lcc(nl);
  std::vector<ArenaProbe> probes;
  for (NetId po : nl.primary_outputs()) probes.push_back({c.net_var[po.value], 0});
  expect_batch_matches_sequential<std::uint32_t>(c.program, probes, nl, 130,
                                                 7777, "LCC program");
}

TEST(BatchRunner, MultiDelayProgramBitIdenticalAcrossThreadCounts) {
  const Netlist nl = test_dag(41, /*max_delay=*/3);
  const ParallelCompiled c = compile_parallel(nl, {.trimming = true});
  expect_batch_matches_sequential<std::uint32_t>(
      c.program, parallel_probes(c, nl), nl, 160, 4141, "multi-delay program");
}

TEST(BatchRunner, SixtyFourBitWordProgram) {
  const Netlist nl = test_dag(51);
  const ParallelCompiled c = compile_parallel(nl, {.word_bits = 64});
  ASSERT_EQ(c.program.word_bits, 64);
  expect_batch_matches_sequential<std::uint64_t>(
      c.program, parallel_probes(c, nl), nl, 97, 5151, "64-bit program");
}

TEST(BatchRunner, EdgeCaseVectorCounts) {
  const Netlist nl = test_dag(61);
  const ParallelCompiled c = compile_parallel(nl, {});
  const auto probes = parallel_probes(c, nl);
  BatchRunner batch(c.program, probes, BatchOptions{.num_threads = 5});
  // Zero vectors: empty result, no shards.
  EXPECT_TRUE(batch.run({}, 0).empty());
  EXPECT_EQ(batch.shard_count(0), 0u);
  // Fewer vectors than threads, including exactly one.
  for (std::size_t count : {std::size_t{1}, std::size_t{3}}) {
    const auto in = random_inputs(nl.primary_inputs().size(), count, 616);
    EXPECT_EQ(batch.run(in, count),
              (sequential_replay<std::uint32_t>(c.program, probes, in, count)));
  }
  // min_chunk keeps shards from shrinking below a replay-worthy size.
  BatchRunner coarse(c.program, probes,
                     BatchOptions{.num_threads = 8, .min_chunk = 100});
  EXPECT_EQ(coarse.shard_count(150), 2u);
  EXPECT_EQ(coarse.shard_count(99), 1u);
  EXPECT_LE(batch.shard_count(1000), 5u);
}

TEST(BatchRunner, LanePackedEdgeCountsMatchStepReplay) {
  // LCC and PC-set programs run word_bits vectors per pass: a lone vector,
  // one short of a lane group, exactly one, one over, and a ragged 70 must
  // all reproduce the one-vector-per-step rows, at every thread count and
  // width, in exactly ceil(count / word_bits) passes.
  const Netlist nl = test_dag(101);
  const std::size_t pis = nl.primary_inputs().size();
  for (int w : supported_widths()) {
    const std::size_t lanes = static_cast<std::size_t>(w);
    for (EngineKind kind : {EngineKind::ZeroDelayLcc, EngineKind::PCSet}) {
      const auto sim = make_simulator(nl, kind, {}, w);
      const Program& program = *sim->compiled_program();
      const std::vector<ArenaProbe> probes = sim->output_probes();
      for (std::size_t count : {std::size_t{1}, lanes - 1, lanes, lanes + 1,
                                std::size_t{70}}) {
        const auto in = random_inputs(pis, count, 1000 + count);
        std::vector<Bit> expect;
        const auto replay = make_simulator(nl, kind, {}, w);
        for (std::size_t v = 0; v < count; ++v) {
          replay->step(std::span<const Bit>(in).subspan(v * pis, pis));
          for (NetId po : nl.primary_outputs()) expect.push_back(replay->final_value(po));
        }
        const std::size_t groups = (count + lanes - 1) / lanes;
        for (unsigned nt : {1u, 2u, 5u}) {
          MetricsRegistry reg;
          BatchRunner batch(program, probes,
                            BatchOptions{.num_threads = nt, .metrics = &reg});
          ASSERT_EQ(batch.lanes_per_pass(), static_cast<unsigned>(w));
          ASSERT_EQ(batch.run(in, count), expect)
              << engine_name(kind) << " w" << w << " count " << count
              << " threads " << nt;
          const std::size_t shards =
              std::min({std::size_t{nt}, groups, (count + 15) / 16});
          EXPECT_EQ(batch.shard_count(count), std::max<std::size_t>(1, shards));
          EXPECT_EQ(reg.counter("exec.passes").value(), groups);
          EXPECT_EQ(reg.counter("sim.vectors").value(), count);
          EXPECT_EQ(reg.counter("batch.seam_vectors").value(), 0u);
        }
      }
    }
  }
}

TEST(BatchRunner, RejectsMalformedRequests) {
  const Netlist nl = test_dag(71);
  const ParallelCompiled c = compile_parallel(nl, {});
  EXPECT_THROW(BatchRunner(c.program, {{c.program.arena_words, 0}}),
               std::invalid_argument);
  EXPECT_THROW(BatchRunner(c.program, {{0, 32}}), std::invalid_argument);
  BatchRunner batch(c.program, parallel_probes(c, nl));
  const auto in = random_inputs(nl.primary_inputs().size(), 2, 1);
  EXPECT_THROW((void)batch.run(in, 3), std::invalid_argument);
}

TEST(SimulatorFacade, RunBatchMatchesStepReplayForEveryEngine) {
  constexpr EngineKind kAll[] = {
      EngineKind::Event2,        EngineKind::Event3,
      EngineKind::PCSet,         EngineKind::Parallel,
      EngineKind::ParallelTrimmed, EngineKind::ParallelPathTracing,
      EngineKind::ParallelCycleBreaking, EngineKind::ParallelCombined,
      EngineKind::ZeroDelayLcc,
  };
  const Netlist nl = test_dag(81);
  const std::size_t pis = nl.primary_inputs().size();
  const std::size_t count = 40;
  RandomVectorSource src(pis, 818);
  std::vector<Bit> flat(pis * count);
  for (std::size_t v = 0; v < count; ++v) {
    src.next(std::span<Bit>(flat.data() + v * pis, pis));
  }
  for (EngineKind kind : kAll) {
    const auto sim = make_simulator(nl, kind);
    const BatchResult r = sim->run_batch(flat, 3);
    ASSERT_EQ(r.vectors, count);
    ASSERT_EQ(r.outputs, nl.primary_outputs());
    ASSERT_EQ(&sim->netlist(), &nl);
    const auto replay = make_simulator(nl, kind);
    for (std::size_t v = 0; v < count; ++v) {
      replay->step(std::span<const Bit>(flat.data() + v * pis, pis));
      for (std::size_t o = 0; o < r.outputs.size(); ++o) {
        ASSERT_EQ(r.value(v, o), replay->final_value(r.outputs[o]))
            << engine_name(kind) << " vector " << v << " output " << o;
      }
    }
    // run_batch starts from the reset state and must ignore (and preserve)
    // the instance's incremental step() state.
    sim->step(std::span<const Bit>(flat.data(), pis));
    const BatchResult again = sim->run_batch(flat, 2);
    EXPECT_EQ(r.values, again.values) << engine_name(kind);
  }
}

TEST(SimulatorFacade, RunBatchRejectsRaggedStream) {
  const Netlist nl = test_dag(91);
  const auto sim = make_simulator(nl, EngineKind::Parallel);
  const std::vector<Bit> ragged(nl.primary_inputs().size() + 1, 0);
  EXPECT_THROW((void)sim->run_batch(ragged, 1), std::invalid_argument);
}

}  // namespace
}  // namespace udsim
