// Correctness at scale (ROADMAP item 7, first step): the default engine
// policy on circuits 10x the largest ISCAS-85 profile, with perfbench
// `build`'s shapes — a 64x64 array multiplier and a 40k-gate leveled random
// DAG, both from src/gen. Settled outputs must equal OracleSim's bit for
// bit at 1 and 2 threads, and the runtime counters must stay exact.
#include <gtest/gtest.h>

#include "core/simulator.h"
#include "gen/arithmetic.h"
#include "gen/random_dag.h"
#include "gen/rng.h"
#include "obs/metrics.h"
#include "oracle/oracle.h"

namespace udsim {
namespace {

constexpr std::size_t kVectors = 16;

Netlist dag40k() {
  RandomDagParams p;
  p.name = "dag";
  p.inputs = 256;
  p.outputs = 128;
  p.gates = 40000;
  p.depth = 120;
  p.seed = 1;
  return random_dag(p);
}

void expect_default_policy_matches_oracle(const Netlist& nl) {
  const std::size_t pis = nl.primary_inputs().size();
  std::vector<Bit> vectors(kVectors * pis);
  Rng rng(0x5ca1e);
  for (Bit& b : vectors) b = static_cast<Bit>(rng.bit());

  OracleSim oracle(nl);
  std::vector<Bit> expect;  // row-major vectors x POs
  for (std::size_t v = 0; v < kVectors; ++v) {
    const Waveform wf = oracle.step(std::span<const Bit>(vectors).subspan(v * pis, pis));
    for (NetId po : nl.primary_outputs()) expect.push_back(wf.final_value(po));
  }

  MetricsRegistry reg;
  SimPolicy policy;
  policy.metrics = &reg;
  const auto sim = make_simulator_with_fallback(nl, policy);
  EXPECT_EQ(sim->kind(), EngineKind::ParallelCombined) << nl.name();
  const std::uint64_t compile_ops = reg.counter("compile.ops").value();
  ASSERT_GT(compile_ops, 0u) << nl.name();

  for (unsigned threads : {1u, 2u}) {
    const std::uint64_t ops0 = reg.counter("exec.ops").value();
    const std::uint64_t passes0 = reg.counter("exec.passes").value();
    const BatchResult r = sim->run_batch(vectors, threads);
    EXPECT_EQ(r.vectors, kVectors) << nl.name() << " @" << threads;
    EXPECT_EQ(r.values, expect) << nl.name() << " @" << threads;
    const std::uint64_t passes = reg.counter("exec.passes").value() - passes0;
    EXPECT_GE(passes, kVectors) << nl.name() << " @" << threads;
    EXPECT_EQ(reg.counter("exec.ops").value() - ops0, compile_ops * passes)
        << nl.name() << " @" << threads;
  }
}

TEST(Scale, Multiplier64DefaultPolicyMatchesOracle) {
  expect_default_policy_matches_oracle(array_multiplier(64, 64, "mult"));
}

TEST(Scale, RandomDag40kDefaultPolicyMatchesOracle) {
  expect_default_policy_matches_oracle(dag40k());
}

}  // namespace
}  // namespace udsim
