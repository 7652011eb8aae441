// Word lanes (DESIGN.md §5c): BatchRunner runs each shard of a one-vector-
// per-pass program as eight contiguous slices in lockstep, slice k in lane
// k of a u32x8 arena. Every lane must behave exactly like a uint32_t
// KernelRunner replaying its own slice of the stream: on every output row,
// on every word of its arena (the whole unit-delay waveform, not just the
// probed bits), across stops and resumes, and across retries.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/batch_runner.h"
#include "core/simulator.h"
#include "core/width_dispatch.h"
#include "gen/iscas_profiles.h"
#include "gen/random_dag.h"
#include "harness/vectors.h"
#include "resilience/checkpoint.h"
#include "resilience/fault_injection.h"

namespace udsim {
namespace {

constexpr EngineKind kParallelVariants[] = {
    EngineKind::Parallel, EngineKind::ParallelTrimmed,
    EngineKind::ParallelPathTracing, EngineKind::ParallelCycleBreaking,
    EngineKind::ParallelCombined};

std::vector<Bit> random_inputs(std::size_t pis, std::size_t count,
                               std::uint64_t seed) {
  RandomVectorSource src(pis, seed);
  std::vector<Bit> in(pis * count);
  for (std::size_t v = 0; v < count; ++v) {
    src.next(std::span<Bit>(in.data() + v * pis, pis));
  }
  return in;
}

/// Sequential uint32_t replay from the reset arena: the output rows, and,
/// when `arenas` is given, the saved arena after every vector.
std::vector<Bit> scalar_replay(const Program& p,
                               const std::vector<ArenaProbe>& probes,
                               std::span<const Bit> in, std::size_t count,
                               std::vector<std::vector<std::uint64_t>>* arenas =
                                   nullptr) {
  KernelRunner<std::uint32_t> runner(p);
  std::vector<std::uint32_t> row(p.input_words);
  std::vector<Bit> out;
  out.reserve(count * probes.size());
  for (std::size_t v = 0; v < count; ++v) {
    for (std::size_t i = 0; i < p.input_words; ++i) {
      row[i] = in[v * p.input_words + i] & 1u;
    }
    runner.run(row);
    for (const ArenaProbe& pr : probes) out.push_back(runner.bit(pr.word, pr.bit));
    if (arenas != nullptr) runner.save_arena(arenas->emplace_back());
  }
  return out;
}

struct Engine {
  std::unique_ptr<Simulator> sim;
  const Program& program() const { return *sim->compiled_program(); }
  std::vector<ArenaProbe> probes() const { return sim->output_probes(); }
};

Engine engine(const Netlist& nl, EngineKind kind) {
  return Engine{make_simulator(nl, kind, {}, 32)};
}

unsigned expected_word_lanes() { return width_available(256) ? 8u : 1u; }

TEST(WordLanes, LaneArenasEqualScalarReplayOnEveryWord) {
  if (!width_available(256)) GTEST_SKIP() << "no 256-bit lane on this host";
  constexpr std::size_t kPasses = 12;
  for (const IscasProfile& profile : iscas85_profiles()) {
    const Netlist nl = make_iscas85_like(profile.name, 3);
    const std::size_t pis = nl.primary_inputs().size();
    for (EngineKind kind : kParallelVariants) {
      const Engine e = engine(nl, kind);
      const Program& p = e.program();
      // Lane k replays its own stream; the scalar runners replay the same.
      std::vector<std::vector<Bit>> streams;
      std::vector<KernelRunner<std::uint32_t>> scalar;
      for (unsigned k = 0; k < 8; ++k) {
        streams.push_back(random_inputs(pis, kPasses, 100 * profile.gates + k));
        scalar.emplace_back(p);
      }
      KernelRunner<u32x8> lanes(p);
      std::vector<u32x8> row(p.input_words);
      std::vector<std::uint32_t> one(p.input_words);
      std::vector<std::uint64_t> got, want;
      for (std::size_t v = 0; v < kPasses; ++v) {
        for (unsigned k = 0; k < 8; ++k) {
          for (std::size_t i = 0; i < p.input_words; ++i) {
            row[i].lane[k] = streams[k][v * pis + i];
          }
        }
        lanes.run(row);
        for (unsigned k = 0; k < 8; ++k) {
          for (std::size_t i = 0; i < p.input_words; ++i) {
            one[i] = streams[k][v * pis + i];
          }
          scalar[k].run(one);
          lanes.save_arena(got, k);
          scalar[k].save_arena(want);
          ASSERT_EQ(got, want) << profile.name << " " << engine_name(kind)
                               << " lane " << k << " after vector " << v;
        }
      }
    }
  }
}

TEST(WordLanes, BatchRowsEqualScalarReplayForEveryVariantAndThreadCount) {
  constexpr std::size_t kCounts[] = {1, 7, 8, 9, 63, 64, 65, 1000};
  for (const IscasProfile& profile : iscas85_profiles()) {
    const Netlist nl = make_iscas85_like(profile.name, 5);
    const auto in = random_inputs(nl.primary_inputs().size(), 1000, profile.gates);
    for (EngineKind kind : kParallelVariants) {
      const Engine e = engine(nl, kind);
      const std::vector<ArenaProbe> probes = e.probes();
      const auto expect = scalar_replay(e.program(), probes, in, 1000);
      for (unsigned nt : {1u, 2u, 5u}) {
        BatchRunner runner(e.program(), probes, BatchOptions{.num_threads = nt});
        ASSERT_EQ(runner.word_lanes(), expected_word_lanes()) << profile.name;
        for (std::size_t count : kCounts) {
          const auto got = runner.run(in, count);
          ASSERT_EQ(got, std::vector<Bit>(expect.begin(),
                                          expect.begin() + static_cast<std::ptrdiff_t>(
                                                               count * probes.size())))
              << profile.name << " " << engine_name(kind) << " nt=" << nt
              << " vectors=" << count;
        }
      }
    }
  }
}

TEST(WordLanes, ProgramOverTheArenaCapStaysScalar) {
  // 12k gates: the 8-lane arena is past the 1 MiB cap (the 10k-gate DAG of
  // the same shape fits just under it; EXPERIMENTS.md Ablation F).
  RandomDagParams params;
  params.name = "dag12k";
  params.inputs = 256;
  params.outputs = 128;
  params.gates = 12000;
  params.depth = 120;
  params.seed = 1;
  const Netlist nl = random_dag(params);
  const Engine e = engine(nl, EngineKind::ParallelCombined);
  const std::vector<ArenaProbe> probes = e.probes();
  ASSERT_GT(e.program().arena_words * sizeof(u32x8), std::size_t{1} << 20);
  const auto in = random_inputs(nl.primary_inputs().size(), 65, 12);
  const auto expect = scalar_replay(e.program(), probes, in, 65);
  for (unsigned nt : {1u, 2u, 5u}) {
    BatchRunner runner(e.program(), probes, BatchOptions{.num_threads = nt});
    EXPECT_EQ(runner.word_lanes(), 1u);
    for (std::size_t count : {1u, 9u, 65u}) {
      EXPECT_EQ(runner.run(in, count),
                std::vector<Bit>(expect.begin(),
                                 expect.begin() + static_cast<std::ptrdiff_t>(
                                                      count * probes.size())))
          << "nt=" << nt << " vectors=" << count;
    }
  }
}

TEST(WordLanes, StopAtEveryPassCheckpointsExactArenasAndResumes) {
  const Netlist nl = make_iscas85_like("c432", 7);
  const std::size_t count = 20;
  const auto in = random_inputs(nl.primary_inputs().size(), count, 432);
  for (EngineKind kind : {EngineKind::Parallel, EngineKind::ParallelCombined}) {
    const Engine e = engine(nl, kind);
    const std::vector<ArenaProbe> probes = e.probes();
    std::vector<std::vector<std::uint64_t>> arenas;
    const auto expect = scalar_replay(e.program(), probes, in, count, &arenas);
    // Two shards of 10 vectors: slices of 2, 2, 1, 1, 1, 1, 1, 1 in lanes.
    const BatchOptions base{.num_threads = 2, .min_chunk = 4};
    BatchRunner clean(e.program(), probes, base);
    ASSERT_EQ(clean.shard_count(count), 2u);
    const std::size_t lanes = clean.word_lanes();
    for (std::size_t u = 0; u < count; ++u) {
      FaultInjector inject(u);
      inject.add_site({FaultSite::DeadlineOverrun, u / 10, u, 0});
      BatchOptions opts = base;
      opts.inject = &inject;
      BatchRunner first(e.program(), probes, opts);
      const ResilientBatch stopped = first.run_resilient(in, count);
      ASSERT_EQ(stopped.status, RunStatus::DeadlineExpired) << "stop at " << u;
      const BatchCheckpoint& ck = stopped.checkpoint;
      ASSERT_EQ(ck.shards.size(), 2 * lanes);
      const std::size_t cols = probes.size();
      for (const ShardCheckpoint& sl : ck.shards) {
        for (std::size_t i = sl.begin * cols; i < sl.next * cols; ++i) {
          ASSERT_EQ(stopped.values[i], expect[i]) << "stop at " << u;
        }
        if (sl.next > sl.begin && sl.next < sl.end) {
          // The retained state after vector next - 1, word for word.
          ASSERT_EQ(sl.arena, arenas[sl.next - 1])
              << engine_name(kind) << " stop at " << u << ", slice [" << sl.begin
              << ", " << sl.end << ") at " << sl.next;
        }
      }
      const BatchCheckpoint reloaded =
          checkpoint_from_bytes(checkpoint_to_bytes(ck));
      BatchRunner second(e.program(), probes, base);
      const ResilientBatch resumed = second.run_resilient(in, count, &reloaded);
      ASSERT_EQ(resumed.status, RunStatus::Complete);
      ASSERT_EQ(resumed.values, expect)
          << engine_name(kind) << " resumed after a stop at " << u;
    }
  }
}

TEST(WordLanes, RetriesAndQuarantineGiveIdenticalRows) {
  const Netlist nl = make_iscas85_like("c880", 2);
  const std::size_t count = 70;
  const auto in = random_inputs(nl.primary_inputs().size(), count, 880);
  const Engine e = engine(nl, EngineKind::ParallelCombined);
  const std::vector<ArenaProbe> probes = e.probes();
  const auto expect = scalar_replay(e.program(), probes, in, count);
  struct Plan {
    FaultSite site;
    unsigned fail_attempts;
    unsigned retry_limit;
    std::uint64_t retries;
    std::uint64_t quarantined;
  };
  for (const Plan& plan : {Plan{FaultSite::WorkerThrow, 1, 2, 1, 0},
                           Plan{FaultSite::ArenaCorrupt, 2, 2, 2, 0},
                           Plan{FaultSite::WorkerThrow, 2, 1, 1, 1},
                           Plan{FaultSite::ArenaCorrupt, 2, 1, 1, 1}}) {
    for (unsigned nt : {1u, 2u, 5u}) {
      // Three vectors before the end: in one of the last shard's later slices.
      BatchRunner clean(e.program(), probes, BatchOptions{.num_threads = nt});
      const std::size_t shard = clean.shard_count(count) - 1;
      const std::size_t site_vector = count - 3;
      FaultInjector inject(7);
      for (unsigned a = 0; a < plan.fail_attempts; ++a) {
        inject.add_site({plan.site, shard, site_vector, a});
      }
      BatchRunner faulty(e.program(), probes,
                         BatchOptions{.num_threads = nt, .inject = &inject,
                                      .retry_limit = plan.retry_limit});
      const ResilientBatch r = faulty.run_resilient(in, count);
      const std::string what = std::string(fault_site_name(plan.site)) +
                               " nt=" + std::to_string(nt);
      EXPECT_EQ(r.status, RunStatus::Complete) << what;
      EXPECT_EQ(r.values, expect) << what;
      EXPECT_EQ(r.retries, plan.retries) << what;
      EXPECT_EQ(r.quarantined, plan.quarantined) << what;
      EXPECT_EQ(inject.fired(plan.site), plan.fail_attempts) << what;
    }
  }
}

}  // namespace
}  // namespace udsim
