// Netlist-transform tests: dead-logic sweep and constant propagation keep
// the observable behaviour; the program validator catches malformed programs.
#include <gtest/gtest.h>

#include "gen/random_dag.h"
#include "harness/vectors.h"
#include "lcc/lcc.h"
#include "netlist/transform.h"
#include "oracle/oracle.h"
#include "parsim/parallel_sim.h"
#include "pcsim/pcset_sim.h"
#include "resilience/program_validator.h"
#include "test_util.h"

namespace udsim {
namespace {

TEST(Transform, SweepRemovesUnreachableLogic) {
  Netlist nl("dead");
  const NetId a = nl.add_net("a");
  nl.mark_primary_input(a);
  const NetId live = nl.add_net("live");
  nl.add_gate(GateType::Not, {a}, live);
  nl.mark_primary_output(live);
  const NetId d1 = nl.add_net("d1");
  nl.add_gate(GateType::Buf, {a}, d1);
  const NetId d2 = nl.add_net("d2");
  nl.add_gate(GateType::And, {d1, a}, d2);
  const SweepResult r = sweep_dead_logic(nl);
  EXPECT_EQ(r.removed_gates, 2u);
  EXPECT_EQ(r.removed_nets, 2u);
  EXPECT_NO_THROW(r.netlist.validate());
  EXPECT_TRUE(r.remap[live.value].valid());
  EXPECT_FALSE(r.remap[d2.value].valid());
}

TEST(Transform, SweepPreservesOutputBehaviour) {
  RandomDagParams p;
  p.inputs = 10;
  p.outputs = 3;
  p.gates = 120;
  p.depth = 9;
  p.seed = 15;
  Netlist nl = random_dag(p);
  // random_dag makes all sinks POs; strip some so dead logic exists.
  Netlist pruned(nl.name());
  for (const Net& n : nl.nets()) (void)pruned.add_net(n.name);
  for (const Gate& g : nl.gates()) pruned.add_gate(g.type, g.inputs, g.output);
  for (NetId pi : nl.primary_inputs()) pruned.mark_primary_input(pi);
  for (std::size_t i = 0; i < 3 && i < nl.primary_outputs().size(); ++i) {
    pruned.mark_primary_output(nl.primary_outputs()[i]);
  }
  const SweepResult r = sweep_dead_logic(pruned);
  EXPECT_GT(r.removed_gates, 0u);

  OracleSim before(pruned);
  OracleSim after(r.netlist);
  RandomVectorSource src(pruned.primary_inputs().size(), 8);
  std::vector<Bit> v(pruned.primary_inputs().size());
  for (int i = 0; i < 20; ++i) {
    src.next(v);
    const Waveform w1 = before.step(v);
    const Waveform w2 = after.step(v);
    for (NetId po : pruned.primary_outputs()) {
      ASSERT_EQ(w1.final_value(po), w2.final_value(r.remap[po.value]));
    }
  }
}

TEST(Transform, ConstantPropagationFolds) {
  Netlist nl("cp");
  const NetId a = nl.add_net("a");
  nl.mark_primary_input(a);
  const NetId zero = nl.add_net("zero");
  nl.add_gate(GateType::Const0, {}, zero);
  const NetId g1 = nl.add_net("g1");
  nl.add_gate(GateType::And, {a, zero}, g1);  // controlling 0 -> const 0
  const NetId g2 = nl.add_net("g2");
  nl.add_gate(GateType::Nor, {g1, zero}, g2);  // both const -> const 1
  const NetId out = nl.add_net("out");
  nl.add_gate(GateType::Xor, {a, g2}, out);  // stays live
  nl.mark_primary_output(out);
  const ConstPropResult r = propagate_constants(nl);
  EXPECT_EQ(r.folded_gates, 2u);
  EXPECT_NO_THROW(r.netlist.validate());
  // Behaviour preserved on settled values.
  LccSim<> s1(nl), s2(r.netlist);
  for (Bit v : {Bit{0}, Bit{1}}) {
    const Bit in[] = {v};
    s1.step(in);
    s2.step(in);
    EXPECT_EQ(s1.value(out), s2.value(out));
  }
}

TEST(Transform, ConstantPropagationPreservesFinalsOnRandomCircuits) {
  RandomDagParams p;
  p.inputs = 8;
  p.outputs = 4;
  p.gates = 90;
  p.depth = 8;
  p.seed = 19;
  Netlist nl = random_dag(p);
  // Tie two inputs to constants by rebuilding with const drivers.
  Netlist tied("tied");
  for (const Net& n : nl.nets()) (void)tied.add_net(n.name);
  const NetId pi0 = nl.primary_inputs()[0];
  const NetId pi1 = nl.primary_inputs()[1];
  tied.add_gate(GateType::Const0, {}, pi0);
  tied.add_gate(GateType::Const1, {}, pi1);
  for (const Gate& g : nl.gates()) tied.add_gate(g.type, g.inputs, g.output);
  for (std::size_t i = 2; i < nl.primary_inputs().size(); ++i) {
    tied.mark_primary_input(nl.primary_inputs()[i]);
  }
  for (NetId po : nl.primary_outputs()) tied.mark_primary_output(po);

  const ConstPropResult r = propagate_constants(tied);
  EXPECT_GT(r.folded_gates, 0u);
  LccSim<> s1(tied), s2(r.netlist);
  RandomVectorSource src(tied.primary_inputs().size(), 5);
  std::vector<Bit> v(tied.primary_inputs().size());
  for (int i = 0; i < 20; ++i) {
    src.next(v);
    s1.step(v);
    s2.step(v);
    for (NetId po : tied.primary_outputs()) {
      ASSERT_EQ(s1.value(po), s2.value(po));
    }
  }
}

TEST(Verify, AcceptsEveryCompiledProgram) {
  const Netlist nl = test::fig4_network();
  EXPECT_EQ(validate_program_brief(compile_lcc(nl).program), "");
  EXPECT_EQ(validate_program_brief(compile_pcset(nl).program), "");
  for (ShiftElim se : {ShiftElim::None, ShiftElim::PathTracing, ShiftElim::CycleBreaking}) {
    for (bool trim : {false, true}) {
      ParallelOptions o;
      o.shift_elim = se;
      o.trimming = trim;
      EXPECT_EQ(validate_program_brief(compile_parallel(nl, o).program), "");
    }
  }
}

TEST(Verify, CatchesOutOfBounds) {
  Program p;
  p.word_bits = 32;
  p.arena_words = 2;
  p.input_words = 1;
  p.ops.push_back({OpCode::Copy, 0, 0, 5, 0});  // a out of bounds
  EXPECT_NE(validate_program_brief(p), "");
  p.ops[0] = {OpCode::Copy, 0, 7, 1, 0};  // dst out of bounds
  EXPECT_NE(validate_program_brief(p), "");
  p.ops[0] = {OpCode::LoadBit, 0, 0, 3, 0};  // input index out of bounds
  EXPECT_NE(validate_program_brief(p), "");
}

TEST(Verify, CatchesBadShifts) {
  Program p;
  p.word_bits = 32;
  p.arena_words = 3;
  p.ops.push_back({OpCode::Shl, 32, 0, 1, 0});  // shift == word size
  EXPECT_NE(validate_program_brief(p), "");
  p.ops[0] = {OpCode::FunnelR, 0, 0, 1, 2};  // funnel by zero
  EXPECT_NE(validate_program_brief(p), "");
  p.ops[0] = {OpCode::FunnelR, 31, 0, 1, 2};
  EXPECT_EQ(validate_program_brief(p), "");
}

TEST(Verify, CatchesScratchReadBeforeWrite) {
  Program p;
  p.word_bits = 32;
  p.arena_words = 3;  // word 0 persistent, 1-2 scratch
  p.ops.push_back({OpCode::Copy, 0, 0, 1, 0});  // read scratch 1 unwritten
  const std::uint32_t persistent[] = {0};
  EXPECT_NE(validate_program_brief(p, {.persistent = persistent}), "");
  p.ops.clear();
  p.ops.push_back({OpCode::Copy, 0, 1, 0, 0});  // write scratch 1 first
  p.ops.push_back({OpCode::Copy, 0, 0, 1, 0});
  EXPECT_EQ(validate_program_brief(p, {.persistent = persistent}), "");
  const std::uint32_t outside[] = {0, 3};  // word 3 is past the arena
  EXPECT_NE(validate_program_brief(p, {.persistent = outside}), "");
}

}  // namespace
}  // namespace udsim
