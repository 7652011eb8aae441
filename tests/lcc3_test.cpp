// Dual-rail compiled three-valued simulation tests.
#include <gtest/gtest.h>

#include "analysis/levelize.h"
#include "gen/random_dag.h"
#include "gen/rng.h"
#include "gen/sequential.h"
#include "ir/schedule.h"
#include "lcc/lcc3.h"
#include "test_util.h"

namespace udsim {
namespace {

/// Independent reference: direct three-valued evaluation in topological
/// order with eval3.
std::vector<Tri> tri_evaluate(const Netlist& nl, std::span<const Tri> pi) {
  std::vector<Tri> vals(nl.net_count(), Tri::X);
  for (std::size_t i = 0; i < pi.size(); ++i) {
    vals[nl.primary_inputs()[i].value] = pi[i];
  }
  std::vector<Tri> pins;
  for (GateId g : topological_gate_order(nl)) {
    const Gate& gate = nl.gate(g);
    pins.clear();
    for (NetId in : gate.inputs) pins.push_back(vals[in.value]);
    vals[gate.output.value] = eval3(gate.type, pins);
  }
  return vals;
}

TEST(Lcc3, BinaryInputsMatchTwoValued) {
  const Netlist nl = test::fig4_network();
  Lcc3Sim<> sim(nl);
  for (int a = 0; a <= 1; ++a) {
    for (int b = 0; b <= 1; ++b) {
      for (int c = 0; c <= 1; ++c) {
        const Tri v[] = {static_cast<Tri>(a), static_cast<Tri>(b),
                         static_cast<Tri>(c)};
        sim.step(v);
        EXPECT_EQ(sim.value(*nl.find_net("E")),
                  static_cast<Tri>(a & b & c));
      }
    }
  }
}

TEST(Lcc3, XPropagationAndDominance) {
  const Netlist nl = test::fig4_network();
  Lcc3Sim<> sim(nl);
  // X AND 0 = 0 (controlling value beats X); X AND 1 = X.
  const Tri v1[] = {Tri::X, Tri::Zero, Tri::One};
  sim.step(v1);
  EXPECT_EQ(sim.value(*nl.find_net("D")), Tri::Zero);
  EXPECT_EQ(sim.value(*nl.find_net("E")), Tri::Zero);
  const Tri v2[] = {Tri::X, Tri::One, Tri::One};
  sim.step(v2);
  EXPECT_EQ(sim.value(*nl.find_net("D")), Tri::X);
  EXPECT_EQ(sim.value(*nl.find_net("E")), Tri::X);
}

TEST(Lcc3, MatchesDirectEvaluationOnRandomCircuits) {
  for (std::uint64_t seed : {7ull, 8ull, 9ull}) {
    RandomDagParams p;
    p.inputs = 10;
    p.outputs = 5;
    p.gates = 120;
    p.depth = 10;
    p.seed = seed;
    p.xor_fraction = 0.3;
    const Netlist nl = random_dag(p);
    Lcc3Sim<> sim(nl);
    Rng rng(seed);
    std::vector<Tri> v(nl.primary_inputs().size());
    for (int trial = 0; trial < 40; ++trial) {
      for (Tri& x : v) {
        const auto r = rng.below(3);
        x = r == 0 ? Tri::Zero : (r == 1 ? Tri::One : Tri::X);
      }
      sim.step(v);
      const std::vector<Tri> expect = tri_evaluate(nl, v);
      for (std::uint32_t n = 0; n < nl.net_count(); ++n) {
        ASSERT_EQ(sim.value(NetId{n}), expect[n])
            << nl.net(NetId{n}).name << " trial " << trial;
      }
    }
  }
}

// Every XOR gate folds through the same scratch rails in emission order;
// run ordering renames them per gate, so the gates' And and Or ops merge
// into shared runs instead of alternating at every gate, and the rails'
// arena words grow only to the peak of live values.
TEST(Lcc3, XorScratchRailsAreRenamedPerGate) {
  RandomDagParams p;
  p.inputs = 12;
  p.outputs = 6;
  p.gates = 300;
  p.depth = 12;
  p.seed = 11;
  p.xor_fraction = 0.8;
  p.max_fanin = 4;
  const Netlist nl = random_dag(p);
  std::size_t xors = 0;
  for (const Gate& g : nl.gates()) {
    xors += (g.type == GateType::Xor || g.type == GateType::Xnor) && g.inputs.size() > 1;
  }
  ASSERT_GT(xors, 100u);
  for (const int w : {32, 64}) {
    const Lcc3Compiled c = compile_lcc3(nl, false, w);
    EXPECT_LT(opcode_runs(c.program), xors) << "w" << w;  // 5 per gate unrenamed
    EXPECT_GT(c.program.arena_words, 2 * nl.net_count()) << "w" << w;
  }
  Lcc3Sim<std::uint64_t> sim(nl);
  Rng rng(p.seed);
  std::vector<Tri> v(nl.primary_inputs().size());
  for (int trial = 0; trial < 40; ++trial) {
    for (Tri& x : v) {
      const auto r = rng.below(3);
      x = r == 0 ? Tri::Zero : (r == 1 ? Tri::One : Tri::X);
    }
    sim.step(v);
    const std::vector<Tri> expect = tri_evaluate(nl, v);
    for (std::uint32_t n = 0; n < nl.net_count(); ++n) {
      ASSERT_EQ(sim.value(NetId{n}), expect[n])
          << nl.net(NetId{n}).name << " trial " << trial;
    }
  }
}

TEST(Lcc3, XorChainPessimism) {
  // X ^ X = X in three-valued logic even though the chain is x ^ x = 0 in
  // reality — the encoding is sound but pessimistic, like any 3-valued sim.
  Netlist nl("xx");
  const NetId a = nl.add_net("a");
  const NetId o = nl.add_net("o");
  nl.mark_primary_input(a);
  nl.add_gate(GateType::Xor, {a, a}, o);
  nl.mark_primary_output(o);
  Lcc3Sim<> sim(nl);
  const Tri v[] = {Tri::X};
  sim.step(v);
  EXPECT_EQ(sim.value(o), Tri::X);
}

TEST(Lcc3, CounterNeedsEnableToInitialize) {
  // With enable low, q <= q ^ 0 = q: X state persists forever. With enable
  // high the XOR still feeds X back: a plain counter never self-initializes
  // (no reset input) — exactly what x_initialization should report.
  const Netlist seq = counter(3);
  const BrokenCircuit bc = break_flip_flops(seq);
  const Tri en_low[] = {Tri::Zero};
  const XInitResult r = x_initialization(bc, en_low, 16);
  EXPECT_FALSE(r.fully_initialized);
  EXPECT_EQ(r.unresolved.size(), 3u);
}

TEST(Lcc3, ResettableRegisterInitializes) {
  // q' = d AND NOT reset: asserting reset drives the register to 0
  // regardless of the X state.
  Netlist seq("resettable");
  const NetId rst = seq.add_net("rst");
  const NetId d_in = seq.add_net("din");
  seq.mark_primary_input(rst);
  seq.mark_primary_input(d_in);
  const NetId q = seq.add_net("q");
  const NetId rst_n = seq.add_net("rst_n");
  seq.add_gate(GateType::Not, {rst}, rst_n);
  const NetId next = seq.add_net("next");
  seq.add_gate(GateType::And, {d_in, rst_n}, next);
  const NetId d = seq.add_net("d");
  seq.add_gate(GateType::Or, {next, q}, d);  // sticky once set... but reset
  const NetId gated = seq.add_net("gated");
  seq.add_gate(GateType::And, {d, rst_n}, gated);
  seq.add_gate(GateType::Dff, {gated}, q);
  seq.mark_primary_output(q);
  const BrokenCircuit bc = break_flip_flops(seq);
  const Tri reset_on[] = {Tri::One, Tri::X};
  const XInitResult r = x_initialization(bc, reset_on, 8);
  EXPECT_TRUE(r.fully_initialized);
  EXPECT_EQ(r.state[0], Tri::Zero);
  EXPECT_LE(r.cycles, 3);
}

}  // namespace
}  // namespace udsim
