// Shift-elimination alignment tests (paper §4, Figs. 10-18).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "analysis/alignment.h"
#include "gen/arithmetic.h"
#include "gen/iscas_profiles.h"
#include "gen/random_dag.h"
#include "gen/rng.h"
#include "test_util.h"

namespace udsim {
namespace {

/// Reference: paper Fig. 17 as a relaxation. Each trace pushes a net's
/// alignment to its drivers and a gate's, less its delay, to its input
/// nets, revisiting a net whenever its alignment drops. Traces start at
/// every primary output, then at every net still unvisited, deepest first.
AlignmentPlan fig17_relaxation(const Netlist& nl, const Levelization& lv) {
  constexpr int kUnassigned = std::numeric_limits<int>::max();
  AlignmentPlan plan;
  plan.net_align.assign(nl.net_count(), kUnassigned);
  plan.gate_align.assign(nl.gate_count(), kUnassigned);

  struct Item {
    bool is_net;
    std::uint32_t id;
    int value;
  };
  std::vector<Item> stack;
  const auto drain = [&] {
    while (!stack.empty()) {
      const Item it = stack.back();
      stack.pop_back();
      if (it.is_net) {
        if (it.value < plan.net_align[it.id]) {
          plan.net_align[it.id] = it.value;
          for (GateId g : nl.net(NetId{it.id}).drivers) {
            stack.push_back({false, g.value, it.value});
          }
        }
      } else {
        if (it.value < plan.gate_align[it.id]) {
          plan.gate_align[it.id] = it.value;
          const Gate& g = nl.gate(GateId{it.id});
          const int d = nl.delay(GateId{it.id});
          for (NetId in : g.inputs) {
            stack.push_back({true, in.value, it.value - d});
          }
        }
      }
    }
  };

  for (NetId po : nl.primary_outputs()) {
    stack.push_back({true, po.value, lv.net_minlevel[po.value]});
    drain();
  }
  std::vector<std::uint32_t> rest;
  for (std::uint32_t i = 0; i < nl.net_count(); ++i) {
    if (plan.net_align[i] == kUnassigned) rest.push_back(i);
  }
  std::sort(rest.begin(), rest.end(), [&](std::uint32_t a, std::uint32_t b) {
    return lv.net_level[a] > lv.net_level[b];
  });
  for (std::uint32_t n : rest) {
    if (plan.net_align[n] != kUnassigned) continue;
    stack.push_back({true, n, lv.net_minlevel[n]});
    drain();
  }
  return plan;
}

/// align_path_tracing (both overloads) must reproduce the reference plan
/// bit for bit, and the plan must be legal.
void expect_matches_reference(const Netlist& nl, const std::string& label) {
  const Levelization lv = levelize(nl);
  const AlignmentPlan ref = fig17_relaxation(nl, lv);
  const AlignmentPlan sweep = align_path_tracing(nl, lv);
  EXPECT_EQ(sweep.net_align, ref.net_align) << label;
  EXPECT_EQ(sweep.gate_align, ref.gate_align) << label;
  const AlignmentPlan given =
      align_path_tracing(nl, lv, topological_gate_order(nl, lv));
  EXPECT_EQ(given.net_align, ref.net_align) << label;
  EXPECT_EQ(given.gate_align, ref.gate_align) << label;
  EXPECT_NO_THROW(check_alignment_plan(nl, lv, sweep)) << label;
}

/// A random net among the first `limit` (default: all of them).
NetId random_net(const Netlist& nl, Rng& rng, std::size_t limit = 0) {
  return NetId{static_cast<std::uint32_t>(rng.below(limit ? limit : nl.net_count()))};
}

/// `count` dead gates hanging off random nets (earlier dead nets included,
/// so dead regions chain), none of them reaching a primary output.
void add_dead_gates(Netlist& nl, Rng& rng, int count, int max_delay) {
  constexpr GateType kTypes[] = {GateType::Buf, GateType::Not, GateType::And,
                                 GateType::Nor, GateType::Xor};
  for (int i = 0; i < count; ++i) {
    const GateType t = kTypes[rng.below(std::size(kTypes))];
    std::vector<NetId> ins{random_net(nl, rng)};
    if (t != GateType::Buf && t != GateType::Not) {
      for (std::uint64_t k = 1 + rng.below(2); k > 0; --k) ins.push_back(random_net(nl, rng));
    }
    const NetId out = nl.add_net("dead" + std::to_string(i));
    const GateId g = nl.add_gate(t, std::move(ins), out);
    nl.set_delay(g, 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(max_delay))));
  }
}

/// `count` wired nets, each driven by two or three gates over random nets
/// and read by one gate whose output is a primary output or dead.
void add_wired_nets(Netlist& nl, Rng& rng, int count) {
  for (int i = 0; i < count; ++i) {
    const NetId w = nl.add_net("wired" + std::to_string(i));
    nl.set_wired(w, rng.bit() ? WiredKind::And : WiredKind::Or);
    for (std::uint64_t k = 2 + rng.below(2); k > 0; --k) {
      if (rng.bit()) {
        nl.add_gate(GateType::Not, {random_net(nl, rng, w.value)}, w);
      } else {
        nl.add_gate(GateType::Nand,
                    {random_net(nl, rng, w.value), random_net(nl, rng, w.value)}, w);
      }
    }
    const NetId out = nl.add_net("wired_out" + std::to_string(i));
    nl.add_gate(GateType::And, {w, random_net(nl, rng, out.value)}, out);
    if (rng.bit()) nl.mark_primary_output(out);
  }
}

TEST(Alignment, UnoptimizedRetainsOneShiftPerGate) {
  const Netlist nl = test::fig4_network();
  const Levelization lv = levelize(nl);
  const AlignmentPlan plan = align_unoptimized(nl, lv);
  const AlignmentStats st = alignment_stats(nl, lv, plan, 32);
  EXPECT_EQ(st.retained_shift_sites, nl.real_gate_count());
  EXPECT_EQ(st.left_shift_sites, nl.real_gate_count());
  check_alignment_plan(nl, lv, plan);
}

TEST(Alignment, Fig10PathTracingEliminatesAllShifts) {
  // Paper Fig. 10: E aligned to 1, C/D to 0, A/B to -1; zero shifts; width 2.
  const Netlist nl = test::fig4_network();
  const Levelization lv = levelize(nl);
  const AlignmentPlan plan = align_path_tracing(nl, lv);
  check_alignment_plan(nl, lv, plan);
  EXPECT_EQ(plan.net_align[nl.find_net("E")->value], 1);
  EXPECT_EQ(plan.net_align[nl.find_net("D")->value], 0);
  EXPECT_EQ(plan.net_align[nl.find_net("C")->value], 0);
  EXPECT_EQ(plan.net_align[nl.find_net("A")->value], -1);
  EXPECT_EQ(plan.net_align[nl.find_net("B")->value], -1);
  const AlignmentStats st = alignment_stats(nl, lv, plan, 32);
  EXPECT_EQ(st.retained_shift_sites, 0u);
  // "it is also possible to reduce the width of the bit-fields from 3 to 2"
  EXPECT_EQ(st.max_width_bits, 2);
}

TEST(Alignment, Fig11RequiresExactlyOneShift) {
  const Netlist nl = test::fig11_network();
  const Levelization lv = levelize(nl);
  for (const AlignmentPlan& plan :
       {align_path_tracing(nl, lv), align_cycle_breaking(nl, lv)}) {
    check_alignment_plan(nl, lv, plan);
    const AlignmentStats st = alignment_stats(nl, lv, plan, 32);
    EXPECT_EQ(st.retained_shift_sites, 1u);
  }
}

TEST(Alignment, UnbalancedReconvergenceMultiBitShift) {
  // Paths of length k+1 and 2 reconverge: the undirected cycle has weight
  // k-1, so k-1 bits of shift must survive somewhere (paper §4: "shifts are
  // no longer restricted to one bit").
  for (int k : {2, 3, 5}) {
    const Netlist nl = test::unbalanced_reconvergence(k);
    const Levelization lv = levelize(nl);
    for (auto [plan, label] :
         {std::pair{align_path_tracing(nl, lv), "pt"},
          std::pair{align_cycle_breaking(nl, lv), "cb"}}) {
      check_alignment_plan(nl, lv, plan);
      int total_input_shift = 0;
      for (std::uint32_t gi = 0; gi < nl.gate_count(); ++gi) {
        const Gate& g = nl.gate(GateId{gi});
        for (NetId in : g.inputs) {
          total_input_shift += std::abs(plan.input_shift(nl, GateId{gi}, in));
        }
        total_input_shift += std::abs(plan.output_shift(nl, GateId{gi}));
      }
      // The cycle weight is conserved: total retained shift magnitude along
      // the cycle equals the path-length difference k - 1.
      EXPECT_EQ(total_input_shift, k - 1) << label << " k=" << k;
      const AlignmentStats st = alignment_stats(nl, lv, plan, 32);
      EXPECT_GE(st.retained_shift_sites, 1u) << label << " k=" << k;
    }
  }
}

TEST(Alignment, PathTracingNeverExpandsBitField) {
  for (const char* name : {"c432", "c880", "c1908"}) {
    const Netlist nl = make_iscas85_like(name);
    const Levelization lv = levelize(nl);
    const AlignmentPlan plan = align_path_tracing(nl, lv);
    check_alignment_plan(nl, lv, plan);
    const AlignmentStats st = alignment_stats(nl, lv, plan, 32);
    EXPECT_LE(st.max_width_bits, lv.depth + 1) << name;
    // Only right shifts.
    EXPECT_EQ(st.left_shift_sites, 0u) << name;
  }
}

TEST(Alignment, PathTracingFanoutFreeRegionsShiftFree) {
  // "any fanout-free region of the circuit will be simulated without
  // shifts": a pure tree retains no shifts at all.
  Netlist nl("tree");
  std::vector<NetId> leaves;
  for (int i = 0; i < 8; ++i) {
    const NetId n = nl.add_net("i" + std::to_string(i));
    nl.mark_primary_input(n);
    leaves.push_back(n);
  }
  int id = 0;
  while (leaves.size() > 1) {
    std::vector<NetId> next;
    for (std::size_t i = 0; i + 1 < leaves.size(); i += 2) {
      const NetId o = nl.add_net("t" + std::to_string(id++));
      nl.add_gate(GateType::Nand, {leaves[i], leaves[i + 1]}, o);
      next.push_back(o);
    }
    leaves = std::move(next);
  }
  nl.mark_primary_output(leaves[0]);
  const Levelization lv = levelize(nl);
  const AlignmentPlan plan = align_path_tracing(nl, lv);
  const AlignmentStats st = alignment_stats(nl, lv, plan, 32);
  EXPECT_EQ(st.retained_shift_sites, 0u);
}

TEST(Alignment, CycleBreakingLegalOnProfiles) {
  for (const char* name : {"c432", "c499", "c880"}) {
    const Netlist nl = make_iscas85_like(name);
    const Levelization lv = levelize(nl);
    const AlignmentPlan plan = align_cycle_breaking(nl, lv);
    EXPECT_NO_THROW(check_alignment_plan(nl, lv, plan)) << name;
  }
}

TEST(Alignment, PathTracingRetainsFewerShiftsThanUnoptimized) {
  for (const char* name : {"c432", "c880", "c2670"}) {
    const Netlist nl = make_iscas85_like(name);
    const Levelization lv = levelize(nl);
    const AlignmentStats unopt =
        alignment_stats(nl, lv, align_unoptimized(nl, lv), 32);
    const AlignmentStats pt =
        alignment_stats(nl, lv, align_path_tracing(nl, lv), 32);
    EXPECT_LT(pt.retained_shift_sites, unopt.retained_shift_sites) << name;
  }
}

TEST(Alignment, DeadLogicStillGetsLegalAlignments) {
  // A net that reaches no primary output must still be aligned legally.
  Netlist nl("dead");
  const NetId a = nl.add_net("a");
  nl.mark_primary_input(a);
  const NetId live = nl.add_net("live");
  nl.add_gate(GateType::Not, {a}, live);
  nl.mark_primary_output(live);
  const NetId dead1 = nl.add_net("dead1");
  nl.add_gate(GateType::Buf, {a}, dead1);
  const NetId dead2 = nl.add_net("dead2");
  nl.add_gate(GateType::And, {dead1, a}, dead2);  // no fanout, not a PO
  const Levelization lv = levelize(nl);
  const AlignmentPlan plan = align_path_tracing(nl, lv);
  EXPECT_NO_THROW(check_alignment_plan(nl, lv, plan));
  EXPECT_LE(plan.net_align[dead2.value], lv.minlevel(dead2));
}

TEST(AlignmentReference, IscasProfiles) {
  for (const IscasProfile& p : iscas85_profiles()) {
    expect_matches_reference(make_iscas85_like(p.name), p.name);
  }
}

TEST(AlignmentReference, RandomDagsMultiDelay) {
  for (int max_delay = 1; max_delay <= 4; ++max_delay) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      RandomDagParams p;
      p.gates = 150 + 40 * seed;
      p.depth = 6 + static_cast<int>(seed % 11);
      p.inputs = 6 + seed % 9;
      p.seed = seed * 7919 + static_cast<std::uint64_t>(max_delay);
      p.reach = 0.5 + 0.25 * static_cast<double>(seed % 8);
      p.max_delay = max_delay;
      expect_matches_reference(random_dag(p), "seed " + std::to_string(seed) +
                                                  " max_delay " +
                                                  std::to_string(max_delay));
    }
  }
}

TEST(AlignmentReference, DeadGatesOffRandomNets) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    RandomDagParams p;
    p.gates = 200;
    p.depth = 12;
    p.seed = 4000 + seed;
    p.max_delay = 1 + static_cast<int>(seed % 4);
    Netlist nl = random_dag(p);
    Rng rng(seed);
    add_dead_gates(nl, rng, 10 + static_cast<int>(seed % 30), p.max_delay);
    expect_matches_reference(nl, "dead seed " + std::to_string(seed));
  }
}

TEST(AlignmentReference, WiredNetsLoweredAndNot) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    RandomDagParams p;
    p.gates = 160;
    p.depth = 10;
    p.seed = 9000 + seed;
    Netlist nl = random_dag(p);
    Rng rng(seed);
    add_wired_nets(nl, rng, 3 + static_cast<int>(seed % 6));
    add_dead_gates(nl, rng, static_cast<int>(seed % 5), 1);
    const std::string label = "wired seed " + std::to_string(seed);
    expect_matches_reference(nl, label);
    ASSERT_GT(lower_wired_nets(nl), 0u);
    expect_matches_reference(nl, label + " lowered");
  }
}

TEST(AlignmentReference, Multiplier64) {
  expect_matches_reference(array_multiplier(64, 64), "mult64");
}

TEST(AlignmentReference, RejectsIncompleteOrder) {
  const Netlist nl = test::fig4_network();
  const Levelization lv = levelize(nl);
  std::vector<GateId> order = topological_gate_order(nl, lv);
  order.pop_back();
  EXPECT_THROW((void)align_path_tracing(nl, lv, order), std::invalid_argument);
}

}  // namespace
}  // namespace udsim
