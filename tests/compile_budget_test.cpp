// CompileBudget / BudgetExceeded: the cost model's accuracy contract (the
// prediction stays within 2x of the emitted program, and its peak bytes
// within 2x of what the compiled object really allocates, on every ISCAS-85
// profile) and the guarded compilers' enforcement semantics.
#include <gtest/gtest.h>

#include "analysis/compile_budget.h"
#include "gen/arithmetic.h"
#include "gen/iscas_profiles.h"
#include "lcc/lcc.h"
#include "parsim/parallel_sim.h"
#include "pcsim/pcset_sim.h"
#include "test_util.h"

namespace udsim {
namespace {

constexpr EngineKind kCompiledKinds[] = {
    EngineKind::ZeroDelayLcc,
    EngineKind::PCSet,
    EngineKind::Parallel,
    EngineKind::ParallelTrimmed,
    EngineKind::ParallelPathTracing,
    EngineKind::ParallelCycleBreaking,
    EngineKind::ParallelCombined,
};

ParallelOptions options_for(EngineKind k) {
  ParallelOptions o;
  switch (k) {
    case EngineKind::ParallelTrimmed:
      o.trimming = true;
      break;
    case EngineKind::ParallelPathTracing:
      o.shift_elim = ShiftElim::PathTracing;
      break;
    case EngineKind::ParallelCycleBreaking:
      o.shift_elim = ShiftElim::CycleBreaking;
      break;
    case EngineKind::ParallelCombined:
      o.trimming = true;
      o.shift_elim = ShiftElim::PathTracing;
      break;
    default:
      break;
  }
  return o;
}

/// Compile `kind` for real and measure the emitted program's cost.
CompileCostEstimate actual_cost(const Netlist& nl, EngineKind kind) {
  switch (kind) {
    case EngineKind::ZeroDelayLcc: {
      const LccCompiled c = compile_lcc(nl);
      return measure_compile_cost(c.program, kind, nl.net_count());
    }
    case EngineKind::PCSet: {
      const PCSetCompiled c = compile_pcset(nl);
      return measure_compile_cost(c.program, kind, nl.net_count());
    }
    default: {
      const ParallelCompiled c = compile_parallel(nl, options_for(kind));
      return measure_compile_cost(c.program, kind, nl.net_count());
    }
  }
}

class BudgetAccuracy : public ::testing::TestWithParam<const char*> {};

// The acceptance bound of the cost model: for every compiled engine over
// every ISCAS-85 profile, the structural prediction is within a factor of
// two of the emitted program's arena and op cost (and of the derived peak
// bytes), in both directions.
TEST_P(BudgetAccuracy, PredictionWithin2xOfEmitted) {
  const Netlist nl = make_iscas85_like(GetParam());
  for (EngineKind kind : kCompiledKinds) {
    const CompileCostEstimate est = estimate_compile_cost(nl, kind);
    const CompileCostEstimate act = actual_cost(nl, kind);
    ASSERT_GT(act.arena_words, 0u);
    ASSERT_GT(act.ops, 0u);
    EXPECT_EQ(est.kind, kind);
    EXPECT_LE(est.arena_words, 2 * act.arena_words)
        << GetParam() << " " << engine_name(kind);
    EXPECT_LE(act.arena_words, 2 * est.arena_words)
        << GetParam() << " " << engine_name(kind);
    EXPECT_LE(est.ops, 2 * act.ops) << GetParam() << " " << engine_name(kind);
    EXPECT_LE(act.ops, 2 * est.ops) << GetParam() << " " << engine_name(kind);
    EXPECT_LE(est.peak_bytes, 2 * act.peak_bytes)
        << GetParam() << " " << engine_name(kind);
    EXPECT_LE(act.peak_bytes, 2 * est.peak_bytes)
        << GetParam() << " " << engine_name(kind);
  }
}

INSTANTIATE_TEST_SUITE_P(Iscas85, BudgetAccuracy,
                         ::testing::Values("c432", "c499", "c880", "c1355",
                                           "c1908", "c2670", "c3540", "c5315",
                                           "c6288", "c7552"));

// The LCC and PC-set estimates replicate their compilers' allocation loops,
// so they are exact, not merely within 2x.
TEST(BudgetAccuracy, LccAndPcsetPredictionsAreExact) {
  for (const char* name : {"c432", "c880", "c2670"}) {
    const Netlist nl = make_iscas85_like(name);
    for (EngineKind kind : {EngineKind::ZeroDelayLcc, EngineKind::PCSet}) {
      const CompileCostEstimate est = estimate_compile_cost(nl, kind);
      const CompileCostEstimate act = actual_cost(nl, kind);
      EXPECT_EQ(est.arena_words, act.arena_words) << name << " " << engine_name(kind);
      EXPECT_EQ(est.ops, act.ops) << name << " " << engine_name(kind);
    }
  }
}

// ---- real footprint ---------------------------------------------------------
// measure_compile_cost derives bytes from the emitted Program's sizes, the
// same formula as the prediction; these tests weigh the compiled object
// itself, by the capacities of everything it allocates.

template <class T>
std::size_t capacity_bytes(const std::vector<T>& v) {
  std::size_t bytes = v.capacity() * sizeof(T);
  if constexpr (requires(const T& x) { x.capacity(); }) {
    for (const T& x : v) bytes += capacity_bytes(x);
  }
  return bytes;
}

/// ops and arena_init at their capacities, plus one arena at the lane width.
std::size_t program_bytes(const Program& p) {
  return capacity_bytes(p.ops) + capacity_bytes(p.arena_init) +
         std::size_t{p.arena_words} * static_cast<std::size_t>(p.word_bits / 8);
}

/// Compiles `kind` at `word_bits`, checks that its ops hold no spare
/// capacity, and returns the bytes the compiled object really holds: the
/// program (program_bytes) and every per-net side table of its type.
std::size_t real_footprint(const Netlist& nl, EngineKind kind, int word_bits) {
  const auto exact = [&](const Program& p) {
    EXPECT_EQ(p.ops.capacity(), p.ops.size())
        << nl.name() << " " << engine_name(kind) << " w" << word_bits;
  };
  switch (kind) {
    case EngineKind::ZeroDelayLcc: {
      const LccCompiled c = compile_lcc(nl, word_bits);
      exact(c.program);
      return program_bytes(c.program) + capacity_bytes(c.net_var) +
             capacity_bytes(c.def_end);
    }
    case EngineKind::PCSet: {
      const PCSetCompiled c = compile_pcset(nl, {}, word_bits);
      exact(c.program);
      return program_bytes(c.program) + capacity_bytes(c.monitored) +
             capacity_bytes(c.net_vars) + capacity_bytes(c.print_times) +
             capacity_bytes(c.print_vars);
    }
    default: {
      ParallelOptions o = options_for(kind);
      o.word_bits = word_bits;
      const ParallelCompiled c = compile_parallel(nl, o);
      exact(c.program);
      return program_bytes(c.program) + capacity_bytes(c.plan.net_align) +
             capacity_bytes(c.plan.gate_align) + capacity_bytes(c.lv.net_level) +
             capacity_bytes(c.lv.net_minlevel) + capacity_bytes(c.lv.gate_level) +
             capacity_bytes(c.lv.gate_minlevel) + capacity_bytes(c.widths) +
             capacity_bytes(c.net_base) + capacity_bytes(c.net_words) +
             capacity_bytes(c.trim.net_words);
    }
  }
}

/// Every compiled engine at 32 and 256 bits: exact ops, and predicted peak
/// bytes within 2x of the real footprint in both directions.
void expect_peak_bytes_within_2x_of_real(const Netlist& nl) {
  for (EngineKind kind : kCompiledKinds) {
    for (const int word_bits : {32, 256}) {
      const std::size_t est = estimate_compile_cost(nl, kind, word_bits).peak_bytes;
      const std::size_t real = real_footprint(nl, kind, word_bits);
      EXPECT_LE(est, 2 * real) << nl.name() << " " << engine_name(kind) << " w"
                               << word_bits << ": predicted " << est << " real " << real;
      EXPECT_LE(real, 2 * est) << nl.name() << " " << engine_name(kind) << " w"
                               << word_bits << ": predicted " << est << " real " << real;
    }
  }
}

class RealFootprint : public ::testing::TestWithParam<const char*> {};

TEST_P(RealFootprint, ExactOpsAndPeakBytesWithin2xOfReal) {
  expect_peak_bytes_within_2x_of_real(make_iscas85_like(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Iscas85, RealFootprint,
                         ::testing::Values("c432", "c499", "c880", "c1355",
                                           "c1908", "c2670", "c3540", "c5315",
                                           "c6288", "c7552"));

// A design nearly three times the largest ISCAS profile, where PC-set's
// op vector is largest (632,771 ops; growing by push_back alone it kept a
// 1,048,576-op capacity).
TEST(RealFootprint, ArrayMultiplier32x32) {
  const Netlist nl = array_multiplier(32, 32);
  ASSERT_EQ(nl.gate_count(), 9760u);
  expect_peak_bytes_within_2x_of_real(nl);
}

TEST(Budget, ZeroLimitsMeanUnlimited) {
  const CompileBudget b;
  EXPECT_TRUE(b.unlimited());
  const CompileCostEstimate huge{EngineKind::PCSet, 1u << 30, 1u << 30, 1u << 30};
  EXPECT_EQ(budget_violation(b, huge), nullptr);
}

TEST(Budget, ViolationNamesTheFirstLimitCrossed) {
  CompileBudget b{.max_arena_words = 10, .max_ops = 10, .max_peak_bytes = 10};
  EXPECT_STREQ(budget_violation(b, {EngineKind::PCSet, 11, 0, 0}), "arena words");
  EXPECT_STREQ(budget_violation(b, {EngineKind::PCSet, 5, 11, 0}), "ops");
  EXPECT_STREQ(budget_violation(b, {EngineKind::PCSet, 5, 5, 11}), "peak bytes");
  EXPECT_EQ(budget_violation(b, {EngineKind::PCSet, 10, 10, 10}), nullptr);
}

/// Guarded compile of `kind` at `word_bits`; returns the emitted cost.
CompileCostEstimate guarded_cost(const Netlist& nl, EngineKind kind, int word_bits,
                                 const CompileGuard& guard) {
  switch (kind) {
    case EngineKind::ZeroDelayLcc:
      return measure_compile_cost(compile_lcc(nl, word_bits, guard).program, kind,
                                  nl.net_count());
    case EngineKind::PCSet:
      return measure_compile_cost(compile_pcset(nl, {}, word_bits, guard).program,
                                  kind, nl.net_count());
    default: {
      ParallelOptions o = options_for(kind);
      o.word_bits = word_bits;
      return measure_compile_cost(compile_parallel(nl, o, guard).program, kind,
                                  nl.net_count());
    }
  }
}

// Every guarded compiler rejects a tiny budget with a *predicted* (pre-
// emission) BudgetExceeded that carries the engine, the cost, and the limit;
// the cost it predicts from its own analysis is the standalone estimate, in
// all three fields, for every compiled kind at 32 and 256 bits.
TEST(Budget, EachCompilerThrowsPredictedBudgetExceeded) {
  const CompileGuard guard{CompileBudget{.max_arena_words = 1}, nullptr};
  const auto expect_throw = [&](const Netlist& nl, EngineKind kind, int word_bits) {
    const std::string where =
        nl.name() + " " + std::string(engine_name(kind)) + " w" + std::to_string(word_bits);
    try {
      (void)guarded_cost(nl, kind, word_bits, guard);
      FAIL() << "expected BudgetExceeded from " << where;
    } catch (const BudgetExceeded& e) {
      EXPECT_EQ(e.kind(), kind) << where;
      EXPECT_TRUE(e.predicted()) << where;
      EXPECT_EQ(e.limit(), "arena words") << where;
      EXPECT_GT(e.cost().arena_words, e.budget().max_arena_words) << where;
      EXPECT_NE(std::string(e.what()).find("predicted"), std::string::npos);
      EXPECT_NE(std::string(e.what()).find("arena words"), std::string::npos);
      const CompileCostEstimate est = estimate_compile_cost(nl, kind, word_bits);
      EXPECT_EQ(e.cost().arena_words, est.arena_words) << where;
      EXPECT_EQ(e.cost().ops, est.ops) << where;
      EXPECT_EQ(e.cost().peak_bytes, est.peak_bytes) << where;
    }
  };
  std::vector<Netlist> circuits;
  circuits.push_back(test::fig4_network());
  for (const char* name : {"c432", "c499", "c880", "c1355", "c1908", "c2670",
                           "c3540", "c5315", "c6288", "c7552"}) {
    circuits.push_back(make_iscas85_like(name));
  }
  circuits.push_back(array_multiplier(32, 32));
  for (const Netlist& nl : circuits) {
    for (EngineKind kind : kCompiledKinds) {
      for (const int word_bits : {32, 256}) expect_throw(nl, kind, word_bits);
    }
  }
}

// A PC-set compile is budgeted on the program it emits for its own monitored
// set: a budget exactly at the emitted cost of a one-output compile admits
// it.
TEST(Budget, PcsetMonitoredSubsetBudgetedOnItsOwnProgram) {
  for (const char* name : {"c432", "c880", "c6288"}) {
    const Netlist nl = make_iscas85_like(name);
    const std::vector<NetId> monitored{nl.primary_outputs().front()};
    const PCSetCompiled free = compile_pcset(nl, monitored, 32);
    const CompileCostEstimate act =
        measure_compile_cost(free.program, EngineKind::PCSet, nl.net_count());
    const CompileGuard guard{CompileBudget{.max_arena_words = act.arena_words,
                                           .max_ops = act.ops,
                                           .max_peak_bytes = act.peak_bytes},
                             nullptr};
    try {
      const PCSetCompiled g = compile_pcset(nl, monitored, 32, guard);
      EXPECT_EQ(g.program.ops.size(), free.program.ops.size()) << name;
      EXPECT_EQ(g.program.arena_words, free.program.arena_words) << name;
      EXPECT_EQ(g.print_times, free.print_times) << name;
    } catch (const BudgetExceeded& e) {
      ADD_FAILURE() << name << ": " << e.what();
    }
  }
}

// A budget exactly at the emitted cost passes both the prediction (which
// never exceeds 2x) only if it fits; a budget at the actual cost with an
// over-predicting model must still compile when the budget admits the
// prediction.
TEST(Budget, GenerousBudgetCompilesAndMatchesUnguarded) {
  const Netlist nl = make_iscas85_like("c432");
  for (EngineKind kind : kCompiledKinds) {
    const CompileCostEstimate est = estimate_compile_cost(nl, kind);
    const CompileGuard guard{CompileBudget{.max_arena_words = 2 * est.arena_words,
                                           .max_ops = 2 * est.ops},
                             nullptr};
    switch (kind) {
      case EngineKind::ZeroDelayLcc: {
        const LccCompiled g = compile_lcc(nl, 32, guard);
        EXPECT_EQ(g.program.ops.size(), compile_lcc(nl).program.ops.size());
        break;
      }
      case EngineKind::PCSet: {
        const PCSetCompiled g = compile_pcset(nl, {}, 32, guard);
        EXPECT_EQ(g.program.ops.size(), compile_pcset(nl).program.ops.size());
        break;
      }
      default: {
        const ParallelCompiled g = compile_parallel(nl, options_for(kind), guard);
        EXPECT_EQ(g.program.ops.size(),
                  compile_parallel(nl, options_for(kind)).program.ops.size());
        break;
      }
    }
  }
}

// Event engines have no compiled program: prediction reports zero arena/ops
// and only an interpreter footprint.
TEST(Budget, EventEnginesPredictNoCompiledCost) {
  const Netlist nl = test::fig4_network();
  for (EngineKind kind : {EngineKind::Event2, EngineKind::Event3}) {
    const CompileCostEstimate est = estimate_compile_cost(nl, kind);
    EXPECT_EQ(est.arena_words, 0u);
    EXPECT_EQ(est.ops, 0u);
    EXPECT_GT(est.peak_bytes, 0u);
  }
}

}  // namespace
}  // namespace udsim
