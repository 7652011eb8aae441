// Parallel-technique tests: bit-field contents (paper Figs. 6-7), full
// waveform agreement with the oracle for every optimization combination and
// both word sizes, and generated-code statistics.
#include <gtest/gtest.h>

#include <set>

#include "gen/random_dag.h"
#include "ir/c_emitter.h"
#include "lcc/lcc.h"
#include "harness/vectors.h"
#include "oracle/oracle.h"
#include "parsim/parallel_sim.h"
#include "test_util.h"

namespace udsim {
namespace {

TEST(ParallelSim, Fig7BitFields) {
  // Paper Fig. 7: network of Fig. 2 (= our fig4), vector A=B=C=1 from the
  // all-zero state: A=B=C=111, D=110, E=100 (bit t = value at time t).
  const Netlist nl = test::fig4_network();
  ParallelSim<> sim(nl);
  const Bit v[] = {1, 1, 1};
  sim.step(v);
  const auto field_bits = [&](const char* name) {
    const NetId n = *nl.find_net(name);
    std::string s;
    for (int t = 0; t <= 2; ++t) s += sim.value_at(n, t) ? '1' : '0';
    return s;  // low bit (time 0) first
  };
  EXPECT_EQ(field_bits("A"), "111");
  EXPECT_EQ(field_bits("B"), "111");
  EXPECT_EQ(field_bits("C"), "111");
  EXPECT_EQ(field_bits("D"), "011");  // rises at t=1
  EXPECT_EQ(field_bits("E"), "001");  // rises at t=2
}

struct ParCase {
  const char* label;
  ParallelOptions options;
};

// gtest prints the parameter into each listed test name. The default
// printer dumps the struct's bytes, label pointer included, and that
// address moves with every process, so the names would never repeat.
void PrintTo(const ParCase& c, std::ostream* os) { *os << c.label; }

class ParallelEquivalence : public ::testing::TestWithParam<ParCase> {};

void check_waveforms(const Netlist& nl, const ParallelOptions& options,
                     int vectors, std::uint64_t seed) {
  OracleSim oracle(nl);
  ParallelSim<> sim(nl, options);
  RandomVectorSource src(nl.primary_inputs().size(), seed);
  std::vector<Bit> v(nl.primary_inputs().size());
  for (int i = 0; i < vectors; ++i) {
    src.next(v);
    const Waveform wf = oracle.step(v);
    sim.step(v);
    // Vector 0 drains the (possibly inconsistent) all-zero construction
    // state; trimming's stable/gap broadcasts presume a settled state, so
    // assertions start at vector 1.
    if (i == 0) continue;
    for (std::uint32_t n = 0; n < nl.net_count(); ++n) {
      const int a = sim.compiled().plan.net_align[n];
      for (int t = std::max(a, 0); t <= oracle.depth(); ++t) {
        ASSERT_EQ(sim.value_at(NetId{n}, t), wf.at(NetId{n}, t))
            << nl.net(NetId{n}).name << " t=" << t << " vector " << i << " ["
            << nl.name() << "]";
      }
      // Times before the alignment carry the previous vector's final value.
      if (i > 0 && a > 0) {
        ASSERT_EQ(sim.value_at(NetId{n}, 0), wf.at(NetId{n}, 0));
      }
    }
  }
}

TEST_P(ParallelEquivalence, MatchesOracleOnSuite) {
  const ParallelOptions options = GetParam().options;
  // Small didactic networks.
  check_waveforms(test::fig4_network(), options, 12, 1);
  check_waveforms(test::fig11_network(), options, 12, 2);
  check_waveforms(test::unbalanced_reconvergence(3), options, 12, 3);
  check_waveforms(test::unbalanced_reconvergence(6), options, 12, 4);
  // Deep chain: multi-word fields even at 32-bit words.
  check_waveforms(test::xor_chain(70), options, 8, 5);
  // Wired nets (lowered).
  {
    Netlist w = test::wired_network(WiredKind::And);
    lower_wired_nets(w);
    check_waveforms(w, options, 16, 6);
    Netlist w2 = test::wired_network(WiredKind::Or);
    lower_wired_nets(w2);
    check_waveforms(w2, options, 16, 7);
  }
  // Random DAGs: narrow and wide PC-sets, one deeper than a word.
  for (auto [gates, depth, reach, seed] :
       {std::tuple{120, 10, 0.4, 10}, {120, 10, 2.5, 11}, {260, 40, 1.2, 12}}) {
    RandomDagParams p;
    p.inputs = 12;
    p.outputs = 6;
    p.gates = static_cast<std::size_t>(gates);
    p.depth = depth;
    p.reach = reach;
    p.seed = static_cast<std::uint64_t>(seed);
    p.xor_fraction = 0.2;
    check_waveforms(random_dag(p), options, 10, 13);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, ParallelEquivalence,
    ::testing::Values(
        ParCase{"unopt", {false, ShiftElim::None, 32}},
        ParCase{"trim", {true, ShiftElim::None, 32}},
        ParCase{"pt", {false, ShiftElim::PathTracing, 32}},
        ParCase{"pt_trim", {true, ShiftElim::PathTracing, 32}},
        ParCase{"cb", {false, ShiftElim::CycleBreaking, 32}},
        ParCase{"cb_trim", {true, ShiftElim::CycleBreaking, 32}}),
    [](const auto& info) { return std::string(info.param.label); });

TEST(ParallelSim, SixtyFourBitWordsMatchOracle) {
  for (ShiftElim se : {ShiftElim::None, ShiftElim::PathTracing}) {
    ParallelOptions o;
    o.shift_elim = se;
    o.word_bits = 64;
    const Netlist nl = test::xor_chain(70);
    OracleSim oracle(nl);
    ParallelSim<std::uint64_t> sim(nl, o);
    RandomVectorSource src(2, 21);
    std::vector<Bit> v(2);
    for (int i = 0; i < 10; ++i) {
      src.next(v);
      const Waveform wf = oracle.step(v);
      sim.step(v);
      for (std::uint32_t n = 0; n < nl.net_count(); ++n) {
        const int a = sim.compiled().plan.net_align[n];
        for (int t = std::max(a, 0); t <= oracle.depth(); ++t) {
          ASSERT_EQ(sim.value_at(NetId{n}, t), wf.at(NetId{n}, t));
        }
      }
    }
  }
}

TEST(ParallelSim, UnoptimizedStatsOneShiftPerGate) {
  const Netlist nl = test::fig4_network();
  const ParallelCompiled c = compile_parallel(nl, {});
  EXPECT_EQ(c.stats.shift_sites, nl.real_gate_count());
  EXPECT_EQ(c.stats.field_words_max, 1);
  EXPECT_EQ(c.stats.field_bits_max, 3);  // n = depth + 1
}

TEST(ParallelSim, PathTracingFig10HasNoShiftOps) {
  ParallelOptions o;
  o.shift_elim = ShiftElim::PathTracing;
  const Netlist nl = test::fig4_network();
  const ParallelCompiled c = compile_parallel(nl, o);
  EXPECT_EQ(c.stats.shift_sites, 0u);
  EXPECT_EQ(c.stats.shift_ops, 0u);
  EXPECT_EQ(c.stats.field_bits_max, 2);  // paper: width reduced from 3 to 2
}

TEST(ParallelSim, TrimmingReducesOpsOnDeepCircuits) {
  RandomDagParams p;
  p.inputs = 16;
  p.outputs = 8;
  p.gates = 300;
  p.depth = 40;  // two words
  p.seed = 33;
  const Netlist nl = random_dag(p);
  const ParallelCompiled plain = compile_parallel(nl, {});
  ParallelOptions o;
  o.trimming = true;
  const ParallelCompiled trimmed = compile_parallel(nl, o);
  EXPECT_LT(trimmed.program.ops.size(), plain.program.ops.size());
  EXPECT_GT(trimmed.stats.suppressed_stores, 0u);
}

TEST(ParallelSim, TrimmingNoEffectOnSingleWordCircuits) {
  // Paper Fig. 20: c432-c1355 fit in one word; trimming changes nothing
  // material (identical op counts up to gap bookkeeping).
  RandomDagParams p;
  p.inputs = 10;
  p.gates = 100;
  p.depth = 9;
  p.seed = 40;
  const Netlist nl = random_dag(p);
  const ParallelCompiled plain = compile_parallel(nl, {});
  ParallelOptions o;
  o.trimming = true;
  const ParallelCompiled trimmed = compile_parallel(nl, o);
  EXPECT_EQ(trimmed.program.ops.size(), plain.program.ops.size());
}

TEST(ParallelSim, FieldAccessForHazardAnalysis) {
  const Netlist nl = test::fig11_network();
  ParallelSim<> sim(nl);
  const Bit v0[] = {0};
  sim.step(v0);
  const Bit v1[] = {1};
  sim.step(v1);
  const NetId c = *nl.find_net("C");
  const auto f = sim.field(c);
  ASSERT_EQ(f.size(), 1u);
  // C glitches 0 -> 1 -> 0: field bits 010.
  EXPECT_EQ(f[0] & 0x7u, 0x2u);
}

TEST(ParallelSim, Fig8TwoWordSimulationShape) {
  // Paper Fig. 8: with two-word fields the delay shift crosses words:
  //   C_1 = temp_0 >> 31;  C_0 |= temp_0 << 1;  C_1 |= temp_1 << 1;
  // Our emitter fuses the word-1 pair into one funnel:
  //   C_1 = (temp_0 >> 31) | (temp_1 << 1).
  const Netlist nl = test::xor_chain(40);  // depth 40: 41-bit fields, 2 words
  const ParallelCompiled c = compile_parallel(nl, {});
  EXPECT_EQ(c.stats.field_words_max, 2);
  CEmitOptions opts;
  opts.comments = false;
  bool saw_word0_store = false;
  bool saw_funnel_carry = false;
  for (const Op& op : c.program.ops) {
    const std::string stmt = op_to_c(c.program, op, opts);
    if (op.code == OpCode::MaskShlOr && op.imm == 1) saw_word0_store = true;
    if (op.code == OpCode::FunnelR && op.imm == 31) {
      saw_funnel_carry = true;
      EXPECT_NE(stmt.find(">> 31"), std::string::npos);
      EXPECT_NE(stmt.find("<< 1"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_word0_store);
  EXPECT_TRUE(saw_funnel_carry);
}

TEST(ParallelSim, Fig10ShiftFreeCodeMatchesZeroDelayLcc) {
  // Paper, on Fig. 10: "the code illustrated ... is identical to the code
  // that would be produced for a zero delay LCC simulation. The only
  // difference in the two simulations is the way that input vectors are
  // processed." Check exactly that: excluding input-load ops, the
  // path-traced parallel program of the Fig. 4 network has the same op
  // sequence (opcode + gate structure) as the LCC program.
  const Netlist nl = test::fig4_network();
  ParallelOptions o;
  o.shift_elim = ShiftElim::PathTracing;
  const ParallelCompiled par = compile_parallel(nl, o);
  const LccCompiled lcc = compile_lcc(nl);
  // "Input processing" = anything not writing a non-PI net's storage.
  std::set<std::uint32_t> par_gate_words, lcc_gate_words;
  for (std::uint32_t n = 0; n < nl.net_count(); ++n) {
    if (nl.net(NetId{n}).is_primary_input) continue;
    for (std::uint32_t w = 0; w < par.net_words[n]; ++w) {
      par_gate_words.insert(par.net_base[n] + w);
    }
    lcc_gate_words.insert(lcc.net_var[n]);
  }
  std::vector<OpCode> a, b;
  for (const Op& op : par.program.ops) {
    if (par_gate_words.contains(op.dst)) a.push_back(op.code);
  }
  for (const Op& op : lcc.program.ops) {
    if (lcc_gate_words.contains(op.dst)) b.push_back(op.code);
  }
  EXPECT_EQ(a, b);  // two AND ops, nothing else
  EXPECT_EQ(a, (std::vector<OpCode>{OpCode::And, OpCode::And}));
}

TEST(ParallelSim, RequiresLoweredWiredNets) {
  const Netlist nl = test::wired_network();
  EXPECT_THROW((void)compile_parallel(nl, {}), NetlistError);
}

}  // namespace
}  // namespace udsim
