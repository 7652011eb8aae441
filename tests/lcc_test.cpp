// Zero-delay LCC compiled-simulation tests, scalar and packed modes.
#include <gtest/gtest.h>

#include "core/kernel_runner.h"
#include "eventsim/zero_delay_sim.h"
#include "gen/random_dag.h"
#include "harness/vectors.h"
#include "lcc/lcc.h"
#include "oracle/oracle.h"
#include "test_util.h"

namespace udsim {
namespace {

TEST(Lcc, Fig1GeneratedCodeIsOneOpPerGate) {
  // Fig. 1: D = A & B; E = C & D; — plus one load per primary input.
  const Netlist nl = test::fig4_network();
  const LccCompiled c = compile_lcc(nl);
  EXPECT_EQ(c.program.ops.size(), nl.primary_inputs().size() + nl.gate_count());
}

TEST(Lcc, MatchesOracleFinals) {
  RandomDagParams p;
  p.inputs = 11;
  p.gates = 140;
  p.depth = 11;
  p.seed = 77;
  const Netlist nl = random_dag(p);
  OracleSim oracle(nl);
  LccSim<> lcc(nl);
  RandomVectorSource src(nl.primary_inputs().size(), 10);
  std::vector<Bit> v(nl.primary_inputs().size());
  for (int i = 0; i < 30; ++i) {
    src.next(v);
    const Waveform wf = oracle.step(v);
    lcc.step(v);
    for (std::uint32_t n = 0; n < nl.net_count(); ++n) {
      ASSERT_EQ(lcc.value(NetId{n}), wf.final_value(NetId{n}))
          << nl.net(NetId{n}).name;
    }
  }
}

TEST(Lcc, PackedModeSimulates32StreamsAtOnce) {
  RandomDagParams p;
  p.inputs = 9;
  p.gates = 100;
  p.depth = 9;
  p.seed = 3;
  const Netlist nl = random_dag(p);
  const LccCompiled c = compile_lcc(nl);
  KernelRunner<std::uint32_t> packed(c.program);
  // 32 scalar references.
  std::vector<std::unique_ptr<LccSim<>>> scalars;
  for (int l = 0; l < 32; ++l) scalars.push_back(std::make_unique<LccSim<>>(nl));

  RandomVectorSource src(nl.primary_inputs().size(), 12);
  std::vector<Bit> lane_v(nl.primary_inputs().size());
  for (int step = 0; step < 5; ++step) {
    std::vector<std::uint32_t> packed_in(nl.primary_inputs().size(), 0);
    for (unsigned lane = 0; lane < 32; ++lane) {
      src.next(lane_v);
      for (std::size_t i = 0; i < lane_v.size(); ++i) {
        packed_in[i] |= static_cast<std::uint32_t>(lane_v[i] & 1u) << lane;
      }
      scalars[lane]->step(lane_v);
    }
    packed.run(packed_in);
    for (unsigned lane = 0; lane < 32; ++lane) {
      for (NetId po : nl.primary_outputs()) {
        ASSERT_EQ(packed.bit(c.net_var[po.value], lane),
                  scalars[lane]->value(po))
            << "lane " << lane << " step " << step;
      }
    }
  }
}

TEST(Lcc, ConstantsLiveInArenaInit) {
  Netlist nl;
  const NetId a = nl.add_net("a");
  const NetId k = nl.add_net("k");
  const NetId o = nl.add_net("o");
  nl.mark_primary_input(a);
  nl.add_gate(GateType::Const1, {}, k);
  nl.add_gate(GateType::Nand, {a, k}, o);
  nl.mark_primary_output(o);
  const LccCompiled c = compile_lcc(nl);
  // No per-vector op touches the constant net.
  for (const Op& op : c.program.ops) {
    EXPECT_NE(op.dst, c.net_var[k.value]);
  }
  LccSim<> sim(nl);
  const Bit v1[] = {1};
  sim.step(v1);
  EXPECT_EQ(sim.value(o), 0);
  const Bit v0[] = {0};
  sim.step(v0);
  EXPECT_EQ(sim.value(o), 1);
}

TEST(Lcc, AgreesWithInterpretedZeroDelay) {
  RandomDagParams p;
  p.inputs = 10;
  p.gates = 110;
  p.depth = 8;
  p.seed = 19;
  const Netlist nl = random_dag(p);
  LccSim<> lcc(nl);
  ZeroDelayEventSim zd(nl);
  RandomVectorSource src(nl.primary_inputs().size(), 20);
  std::vector<Bit> v(nl.primary_inputs().size());
  for (int i = 0; i < 20; ++i) {
    src.next(v);
    lcc.step(v);
    zd.step(v);
    for (NetId po : nl.primary_outputs()) {
      ASSERT_EQ(lcc.value(po), zd.value(po));
    }
  }
}

}  // namespace
}  // namespace udsim
