// PC-set method tests: generated-code shape (paper Fig. 4), full waveform
// agreement with the oracle, the PRINT output routine, and the
// data-parallel multi-stream mode.
#include <gtest/gtest.h>

#include "gen/random_dag.h"
#include "harness/vectors.h"
#include "ir/c_emitter.h"
#include "oracle/oracle.h"
#include "pcsim/pcset_sim.h"
#include "test_util.h"

namespace udsim {
namespace {

TEST(PCSetSim, Fig4GeneratedCode) {
  const Netlist nl = test::fig4_network();
  const NetId mon[] = {*nl.find_net("E")};
  const PCSetCompiled c = compile_pcset(nl, mon);
  // Variables: A_0 B_0 C_0 D_0 D_1 E_1 E_2 (paper Fig. 4).
  EXPECT_EQ(c.program.arena_words, 7u);
  CEmitOptions opts;
  opts.comments = false;
  std::vector<std::string> stmts;
  for (const Op& op : c.program.ops) stmts.push_back(op_to_c(c.program, op, opts));
  // First statement is the retained-value init D_0 = D_1.
  const std::vector<std::string> names = pcset_var_names(nl, c);
  const auto var = [&](const char* name) {
    for (std::uint32_t i = 0; i < names.size(); ++i) {
      if (names[i] == name) return i;
    }
    ADD_FAILURE() << "no variable " << name;
    return 0u;
  };
  ASSERT_EQ(stmts.size(), 7u);  // 1 init + 3 loads + 3 gate sims
  EXPECT_EQ(stmts[0], "udsim_arena[" + std::to_string(var("D_0")) +
                          "] = udsim_arena[" + std::to_string(var("D_1")) + "];");
  // Gate sims: D_1 = A_0 & B_0; E_1 = D_0 & C_0; E_2 = D_1 & C_0.
  EXPECT_NE(std::find(stmts.begin(), stmts.end(),
                      "udsim_arena[" + std::to_string(var("E_1")) +
                          "] = udsim_arena[" + std::to_string(var("D_0")) +
                          "] & udsim_arena[" + std::to_string(var("C_0")) + "];"),
            stmts.end());
  EXPECT_NE(std::find(stmts.begin(), stmts.end(),
                      "udsim_arena[" + std::to_string(var("E_2")) +
                          "] = udsim_arena[" + std::to_string(var("D_1")) +
                          "] & udsim_arena[" + std::to_string(var("C_0")) + "];"),
            stmts.end());
}

TEST(PCSetSim, MonitoredWaveformMatchesOracle) {
  RandomDagParams p;
  p.inputs = 12;
  p.gates = 170;
  p.depth = 13;
  p.seed = 23;
  p.reach = 2.0;
  const Netlist nl = random_dag(p);
  // Monitor everything: zero insertion then makes every net's history
  // reconstructible at every time.
  std::vector<NetId> all;
  for (std::uint32_t n = 0; n < nl.net_count(); ++n) all.push_back(NetId{n});
  OracleSim oracle(nl);
  PCSetSim<> sim(nl, all);
  RandomVectorSource src(nl.primary_inputs().size(), 9);
  std::vector<Bit> v(nl.primary_inputs().size());
  // Warm-up: value_at reconstructs history only from PC-time variables,
  // which presumes a settled previous state.
  src.next(v);
  (void)oracle.step(v);
  sim.step(v);
  for (int i = 0; i < 25; ++i) {
    src.next(v);
    const Waveform wf = oracle.step(v);
    sim.step(v);
    for (std::uint32_t n = 0; n < nl.net_count(); ++n) {
      for (int t = 0; t <= oracle.depth(); ++t) {
        ASSERT_EQ(sim.value_at(NetId{n}, t), wf.at(NetId{n}, t))
            << nl.net(NetId{n}).name << " t=" << t << " vector " << i;
      }
    }
  }
}

TEST(PCSetSim, PrintRoutineProducesOutputHistory) {
  const Netlist nl = test::fig4_network();
  const NetId e = *nl.find_net("E");
  const NetId mon[] = {e};
  const PCSetCompiled c = compile_pcset(nl, mon);
  // E's PC-set is {1,2}: two output vectors per input vector.
  EXPECT_EQ(c.print_times, (std::vector<int>{1, 2}));
  ASSERT_EQ(c.print_vars.size(), 2u);
  PCSetSim<> sim(nl, mon);
  OracleSim oracle(nl);
  RandomVectorSource src(3, 14);
  std::vector<Bit> v(3);
  src.next(v);
  (void)oracle.step(v);
  sim.step(v);
  for (int i = 0; i < 10; ++i) {
    src.next(v);
    const Waveform wf = oracle.step(v);
    sim.step(v);
    for (std::size_t k = 0; k < c.print_times.size(); ++k) {
      EXPECT_EQ(sim.value_at(e, c.print_times[k]), wf.at(e, c.print_times[k]));
    }
  }
}

TEST(PCSetSim, CodeSizeTracksTotalPCSetSize) {
  // "one gate-simulation is generated for each element of the gate's
  // PC-set": op count grows with the total PC-set size, not gate count.
  RandomDagParams p;
  p.inputs = 10;
  p.gates = 100;
  p.depth = 10;
  p.seed = 2;
  p.reach = 0.2;
  const Netlist narrow = random_dag(p);
  p.reach = 3.0;
  p.seed = 3;
  const Netlist wide = random_dag(p);
  const auto ops_per_gate = [](const Netlist& nl) {
    const PCSetCompiled c = compile_pcset(nl);
    return static_cast<double>(c.program.ops.size()) /
           static_cast<double>(nl.gate_count());
  };
  EXPECT_GT(ops_per_gate(wide), ops_per_gate(narrow));
}

TEST(PCSetSim, DataParallelLanesMatchScalarStreams) {
  RandomDagParams p;
  p.inputs = 8;
  p.gates = 90;
  p.depth = 9;
  p.seed = 6;
  const Netlist nl = random_dag(p);
  const PCSetCompiled c = compile_pcset(nl);
  KernelRunner<std::uint32_t> packed(c.program);
  std::vector<std::unique_ptr<PCSetSim<>>> scalars;
  for (int l = 0; l < 32; ++l) {
    scalars.push_back(std::make_unique<PCSetSim<>>(nl));
  }
  RandomVectorSource src(nl.primary_inputs().size(), 16);
  std::vector<Bit> lane_v(nl.primary_inputs().size());
  for (int step = 0; step < 6; ++step) {
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
        ASSERT_EQ(packed.bit(c.final_var(po), lane), scalars[lane]->final_value(po))
            << "lane " << lane;
      }
    }
  }
}

TEST(PCSetSim, RequiresLoweredWiredNets) {
  const Netlist nl = test::wired_network();
  EXPECT_THROW((void)compile_pcset(nl), NetlistError);
  Netlist low = test::wired_network();
  lower_wired_nets(low);
  EXPECT_NO_THROW((void)compile_pcset(low));
}

TEST(PCSetSim, WiredNetHistoryCorrect) {
  Netlist nl = test::wired_network(WiredKind::And);
  lower_wired_nets(nl);
  std::vector<NetId> all;
  for (std::uint32_t n = 0; n < nl.net_count(); ++n) all.push_back(NetId{n});
  OracleSim oracle(nl);
  PCSetSim<> sim(nl, all);
  RandomVectorSource src(3, 44);
  std::vector<Bit> v(3);
  src.next(v);
  (void)oracle.step(v);
  sim.step(v);
  const NetId w = *nl.find_net("W");
  for (int i = 0; i < 12; ++i) {
    src.next(v);
    const Waveform wf = oracle.step(v);
    sim.step(v);
    for (int t = 0; t <= oracle.depth(); ++t) {
      ASSERT_EQ(sim.value_at(w, t), wf.at(w, t)) << "t=" << t;
    }
  }
}

}  // namespace
}  // namespace udsim
