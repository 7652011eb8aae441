// make_simulator_with_fallback: a budget too small for the preferred engine
// degrades down the chain instead of failing, the chosen engine still
// simulates correctly (checked against the oracle), and every downgrade is
// visible in the Diagnostics sink.
#include <gtest/gtest.h>

#include "core/simulator.h"
#include "gen/random_dag.h"
#include "harness/vectors.h"
#include "oracle/oracle.h"
#include "resilience/circuit_breaker.h"
#include "test_util.h"

namespace udsim {
namespace {

/// Deep, heavily reconvergent DAG: the parallel technique's per-net
/// (depth+1)-bit fields make its arena far larger than LCC's one word per
/// net, so an arena budget can separate the two.
Netlist deep_reconvergent() {
  RandomDagParams p;
  p.name = "deep";
  p.inputs = 12;
  p.outputs = 8;
  p.gates = 600;
  p.depth = 96;
  p.reach = 6.0;
  p.seed = 0x5eedull;
  return random_dag(p);
}

void expect_matches_oracle(Simulator& sim, const Netlist& nl, int vectors,
                           std::uint64_t seed) {
  OracleSim oracle(nl);
  RandomVectorSource src(nl.primary_inputs().size(), seed);
  std::vector<Bit> v(nl.primary_inputs().size());
  for (int i = 0; i < vectors; ++i) {
    src.next(v);
    const Waveform wf = oracle.step(v);
    sim.step(v);
    for (NetId po : nl.primary_outputs()) {
      ASSERT_EQ(wf.final_value(po), sim.final_value(po))
          << "net " << nl.net(po).name << " vector " << i << " engine "
          << engine_name(sim.kind());
    }
  }
}

TEST(FallbackChain, UnlimitedBudgetPicksTheFirstEngine) {
  const Netlist nl = test::fig4_network();
  Diagnostics diag;
  const auto sim = make_simulator_with_fallback(nl, {}, &diag);
  EXPECT_EQ(sim->kind(), EngineKind::ParallelCombined);
  EXPECT_EQ(diag.count(DiagCode::BudgetDowngrade), 0u);
  ASSERT_TRUE(diag.has(DiagCode::EngineSelected));
  EXPECT_EQ(diag.first(DiagCode::EngineSelected)->subject,
            engine_name(EngineKind::ParallelCombined));
}

// The acceptance scenario: a deep reconvergent netlist whose parallel-
// technique cost exceeds a small arena budget compiles and simulates
// correctly through the fallback chain, outputs match the oracle, and the
// downgrades are recorded.
TEST(FallbackChain, DeepNetlistDowngradesAndStillMatchesOracle) {
  const Netlist nl = deep_reconvergent();

  // Budget sized between LCC (one word per net) and the parallel engines'
  // bit-field arenas, so the chain must skip past both parallel entries.
  const CompileCostEstimate par =
      estimate_compile_cost(nl, EngineKind::ParallelCombined);
  const CompileCostEstimate lcc =
      estimate_compile_cost(nl, EngineKind::ZeroDelayLcc);
  ASSERT_LT(lcc.arena_words, par.arena_words);

  SimPolicy policy;
  policy.budget.max_arena_words = lcc.arena_words;
  Diagnostics diag;
  const auto sim = make_simulator_with_fallback(nl, policy, &diag);

  EXPECT_EQ(sim->kind(), EngineKind::ZeroDelayLcc);
  EXPECT_GE(diag.count(DiagCode::BudgetDowngrade), 3u);  // combined/trimmed/pcset
  ASSERT_TRUE(diag.has(DiagCode::EngineSelected));
  const Diagnostic* sel = diag.first(DiagCode::EngineSelected);
  EXPECT_EQ(sel->subject, engine_name(EngineKind::ZeroDelayLcc));
  const Diagnostic* down = diag.first(DiagCode::BudgetDowngrade);
  EXPECT_EQ(down->subject, engine_name(EngineKind::ParallelCombined));
  EXPECT_NE(down->message.find("arena words"), std::string::npos);

  expect_matches_oracle(*sim, nl, 16, 0xfeedull);
}

TEST(FallbackChain, EventEngineIsTheLastResort) {
  const Netlist nl = deep_reconvergent();
  SimPolicy policy;
  policy.budget.max_arena_words = 4;  // below even LCC's one word per net
  Diagnostics diag;
  const auto sim = make_simulator_with_fallback(nl, policy, &diag);
  EXPECT_EQ(sim->kind(), EngineKind::Event2);
  EXPECT_EQ(diag.count(DiagCode::BudgetDowngrade), 4u);  // all compiled entries
  expect_matches_oracle(*sim, nl, 8, 0xbeefull);
}

TEST(FallbackChain, ExhaustedChainThrowsBudgetExceeded) {
  const Netlist nl = test::fig4_network();
  SimPolicy policy;
  policy.chain = {EngineKind::ParallelCombined, EngineKind::ZeroDelayLcc};
  policy.budget.max_arena_words = 1;
  Diagnostics diag;
  EXPECT_THROW(
      { auto s = make_simulator_with_fallback(nl, policy, &diag); },
      BudgetExceeded);
  EXPECT_EQ(diag.count(DiagCode::BudgetDowngrade), 2u);
  EXPECT_FALSE(diag.has(DiagCode::EngineSelected));
}

TEST(FallbackChain, EmptyChainIsAnError) {
  const Netlist nl = test::fig4_network();
  SimPolicy policy;
  policy.chain.clear();
  EXPECT_THROW({ auto s = make_simulator_with_fallback(nl, policy); },
               NetlistError);
}

// Native entries in the chain (DESIGN.md §5h): a native pipeline failure is
// not a budget miss — it produces a NativeFallback record ordered before
// the EngineSelected note, the chain lands on the IR first choice, and the
// facade's exec.ops == compile.ops × passes invariant still holds on the IR
// path (the abandoned native attempt's compile counters are rolled back).
TEST(FallbackChain, NativeFailureFallsBackToIrWithOrderedDiagnostics) {
  const Netlist nl = test::fig4_network();
  SimPolicy policy = native_sim_policy();
  policy.native.compiler = "/nonexistent/udsim-no-such-cc";  // force Compile
  MetricsRegistry reg;
  policy.metrics = &reg;
  Diagnostics diag;
  const auto sim = make_simulator_with_fallback(nl, policy, &diag);

  EXPECT_EQ(sim->kind(), EngineKind::ParallelCombined);
  EXPECT_EQ(diag.count(DiagCode::NativeFallback), 1u);
  EXPECT_EQ(diag.count(DiagCode::BudgetDowngrade), 0u)
      << "a toolchain failure must not masquerade as a budget miss";

  // Record order: the fallback explains the selection that follows it.
  std::size_t fallback_at = diag.records().size();
  std::size_t selected_at = diag.records().size();
  for (std::size_t i = 0; i < diag.records().size(); ++i) {
    if (diag.records()[i].code == DiagCode::NativeFallback) fallback_at = i;
    if (diag.records()[i].code == DiagCode::EngineSelected) selected_at = i;
  }
  ASSERT_LT(selected_at, diag.records().size());
  EXPECT_LT(fallback_at, selected_at);
  EXPECT_EQ(diag.records()[fallback_at].subject,
            engine_name(EngineKind::Native));
  const Diagnostic& sel = diag.records()[selected_at];
  EXPECT_EQ(sel.subject, engine_name(EngineKind::ParallelCombined));
  EXPECT_NE(sel.message.find("after native fallback"), std::string::npos)
      << sel.message;

  // The invariant the observability layer pins for every IR engine must
  // survive the detour: only the selected engine's compile is on the books.
  EXPECT_EQ(reg.snapshot().at("native.fallback"), 1u);
  constexpr std::uint64_t kPasses = 3;
  std::vector<Bit> row(nl.primary_inputs().size(), 0);
  for (std::uint64_t i = 0; i < kPasses; ++i) sim->step(row);
  const auto snap = reg.snapshot();
  ASSERT_NE(snap.at("compile.ops"), 0u);
  EXPECT_EQ(snap.at("exec.ops"), snap.at("compile.ops") * kPasses);

  expect_matches_oracle(*sim, nl, 8, 0xabcdull);
}

[[nodiscard]] std::uint64_t counter_or_zero(const MetricsRegistry& reg,
                                            const std::string& name) {
  const auto snap = reg.snapshot();
  const auto it = snap.find(name);
  return it == snap.end() ? 0 : it->second;
}

// A program the budget rejects after emission is never on the books: the
// first entry's prediction (3,080 ops) fits, its emitted program (3,114
// ops) does not, and the registry then describes only the LCC program the
// chain selects, so exec.ops == compile.ops × passes holds.
TEST(FallbackChain, EmittedBudgetMissLeavesNoCompileCounters) {
  RandomDagParams params;
  params.name = "emitted_miss";
  params.inputs = 12;
  params.outputs = 8;
  params.gates = 600;
  params.depth = 16;
  params.reach = 6.0;
  params.seed = 2;
  const Netlist nl = random_dag(params);
  SimPolicy policy;
  policy.chain = {EngineKind::ParallelCycleBreaking, EngineKind::ZeroDelayLcc};
  policy.budget.max_ops = 3100;
  MetricsRegistry reg;
  policy.metrics = &reg;
  Diagnostics diag;
  const auto sim = make_simulator_with_fallback(nl, policy, &diag);

  EXPECT_EQ(sim->kind(), EngineKind::ZeroDelayLcc);
  const Diagnostic* down = diag.first(DiagCode::BudgetDowngrade);
  ASSERT_NE(down, nullptr);
  EXPECT_EQ(down->subject, engine_name(EngineKind::ParallelCycleBreaking));
  EXPECT_NE(down->message.find("emitted ops"), std::string::npos) << down->message;

  constexpr std::uint64_t kPasses = 3;
  std::vector<Bit> row(nl.primary_inputs().size(), 0);
  for (std::uint64_t i = 0; i < kPasses; ++i) sim->step(row);
  EXPECT_EQ(counter_or_zero(reg, "compile.programs"), 1u);
  ASSERT_NE(counter_or_zero(reg, "compile.ops"), 0u);
  EXPECT_EQ(counter_or_zero(reg, "exec.ops"),
            counter_or_zero(reg, "compile.ops") * kPasses);
}

// Native's budget miss happens in its base ParallelCombined compile, before
// any C is emitted: no toolchain runs (the compiler path does not exist, so
// an attempt would show as a NativeFallback), the breaker records no
// failure, and the miss is reported — and thrown at the chain's end — as
// Native's.
TEST(FallbackChain, NativeBudgetMissSpawnsNoToolchain) {
  const Netlist nl = deep_reconvergent();
  SimPolicy policy = native_sim_policy();
  policy.native.compiler = "/nonexistent/udsim-no-such-cc";
  policy.budget.max_arena_words =
      estimate_compile_cost(nl, EngineKind::ZeroDelayLcc).arena_words;
  MetricsRegistry reg;
  policy.metrics = &reg;
  CircuitBreaker breaker(CircuitBreakerConfig{.name = "cc"}, &reg);
  policy.native_breaker = &breaker;
  Diagnostics diag;
  const auto sim = make_simulator_with_fallback(nl, policy, &diag);

  EXPECT_EQ(sim->kind(), EngineKind::ZeroDelayLcc);
  const Diagnostic* down = diag.first(DiagCode::BudgetDowngrade);
  ASSERT_NE(down, nullptr);
  EXPECT_EQ(down->subject, engine_name(EngineKind::Native));
  EXPECT_NE(down->message.find("predicted arena words"), std::string::npos)
      << down->message;
  EXPECT_FALSE(diag.has(DiagCode::NativeFallback));
  EXPECT_EQ(counter_or_zero(reg, "native.builds"), 0u);
  EXPECT_EQ(counter_or_zero(reg, "native.fallback"), 0u);
  EXPECT_EQ(breaker.state(), BreakerState::Closed);
  EXPECT_EQ(breaker.consecutive_failures(), 0u);
  EXPECT_EQ(counter_or_zero(reg, "breaker.cc.failures"), 0u);

  policy.chain = {EngineKind::Native};
  try {
    auto s = make_simulator_with_fallback(nl, policy, &diag);
    FAIL() << "expected BudgetExceeded";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.kind(), EngineKind::Native);
    EXPECT_TRUE(e.predicted());
    EXPECT_EQ(e.limit(), "arena words");
  }
  EXPECT_EQ(counter_or_zero(reg, "native.builds"), 0u);
  EXPECT_EQ(breaker.consecutive_failures(), 0u);
}

// Diagnostics are optional: the chain works with a null sink.
TEST(FallbackChain, NullDiagnosticsSinkIsAccepted) {
  const Netlist nl = deep_reconvergent();
  SimPolicy policy;
  policy.budget.max_arena_words =
      estimate_compile_cost(nl, EngineKind::ZeroDelayLcc).arena_words;
  const auto sim = make_simulator_with_fallback(nl, policy);
  EXPECT_EQ(sim->kind(), EngineKind::ZeroDelayLcc);
}

// make_simulator with a guard enforces the budget on a single
// engine without any fallback.
TEST(FallbackChain, GuardedMakeSimulatorThrowsInsteadOfFallingBack) {
  const Netlist nl = deep_reconvergent();
  const CompileGuard guard{CompileBudget{.max_arena_words = 8}, nullptr};
  EXPECT_THROW(
      { auto s = make_simulator(nl, EngineKind::ParallelCombined, guard); },
      BudgetExceeded);
  // Event engines compile nothing, so the same guard admits them.
  const auto sim = make_simulator(nl, EngineKind::Event2, guard);
  EXPECT_EQ(sim->kind(), EngineKind::Event2);
}

}  // namespace
}  // namespace udsim
