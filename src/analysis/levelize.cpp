#include "analysis/levelize.h"

#include <algorithm>
#include <limits>
#include <numeric>

namespace udsim {

namespace {

// Shared worklist skeleton for levelize / minlevel / PC-sets: the paper's
// counting algorithm (§2 steps 1-6). Visits every net and gate exactly once,
// nets only after all their drivers, gates only after all their input nets.
// Calls net_fn(net) / gate_fn(gate) in that dependency order.
template <class NetFn, class GateFn>
void run_worklist(const Netlist& nl, NetFn&& net_fn, GateFn&& gate_fn) {
  const std::size_t num_nets = nl.net_count();
  const std::size_t num_gates = nl.gate_count();
  std::vector<std::uint32_t> net_count(num_nets), gate_count(num_gates);
  // Work items: net ids in [0, num_nets), gate ids offset by num_nets.
  std::vector<std::uint32_t> queue;
  queue.reserve(num_nets + num_gates);

  for (std::uint32_t i = 0; i < num_nets; ++i) {
    net_count[i] = static_cast<std::uint32_t>(nl.net(NetId{i}).drivers.size());
    if (net_count[i] == 0) queue.push_back(i);
  }
  for (std::uint32_t i = 0; i < num_gates; ++i) {
    gate_count[i] = static_cast<std::uint32_t>(nl.gate(GateId{i}).inputs.size());
    if (gate_count[i] == 0) queue.push_back(static_cast<std::uint32_t>(num_nets) + i);
  }

  std::size_t processed = 0;
  while (!queue.empty()) {
    const std::uint32_t item = queue.back();
    queue.pop_back();
    ++processed;
    if (item < num_nets) {
      const NetId n{item};
      net_fn(n);
      // Reduce the count of every fanout gate once per pin (paper: "if n
      // appears twice in the input list of a gate then the count of g is
      // reduced by 2").
      for (GateId g : nl.net(n).fanout) {
        if (--gate_count[g.value] == 0) {
          queue.push_back(static_cast<std::uint32_t>(num_nets) + g.value);
        }
      }
    } else {
      const GateId g{item - static_cast<std::uint32_t>(num_nets)};
      gate_fn(g);
      const NetId out = nl.gate(g).output;
      if (--net_count[out.value] == 0) queue.push_back(out.value);
    }
  }
  if (processed != num_nets + num_gates) {
    throw NetlistError(
        "levelization worklist stalled: netlist '" + nl.name() +
        "' has a cycle: " + nl.describe_cycle());
  }
}

/// A topological gate order made level-sorted for readable generated code:
/// each gate goes to the end of its level's slot range (a counting sort by
/// gate level that keeps the given order within a level). A gate's level
/// never exceeds the depth.
std::vector<GateId> sort_by_level(const std::vector<GateId>& topo, const Levelization& lv) {
  std::vector<std::size_t> next(static_cast<std::size_t>(lv.depth) + 2, 0);
  for (int level : lv.gate_level) ++next[static_cast<std::size_t>(level) + 1];
  std::partial_sum(next.begin(), next.end(), next.begin());
  std::vector<GateId> order(topo.size());
  for (GateId g : topo) order[next[static_cast<std::size_t>(lv.gate_level[g.value])]++] = g;
  return order;
}

/// levelize, also collecting the worklist's gate order when `worklist` is
/// set.
Levelization levelize_impl(const Netlist& nl, std::vector<GateId>* worklist) {
  Levelization lv;
  lv.net_level.assign(nl.net_count(), 0);
  lv.net_minlevel.assign(nl.net_count(), 0);
  lv.gate_level.assign(nl.gate_count(), 0);
  lv.gate_minlevel.assign(nl.gate_count(), 0);

  constexpr int kNone = std::numeric_limits<int>::min();
  run_worklist(
      nl,
      [&](NetId n) {
        // Level of a wired net = max of driver levels; minlevel = min.
        int lo = std::numeric_limits<int>::max();
        int hi = kNone;
        for (GateId g : nl.net(n).drivers) {
          if (lv.gate_level[g.value] == kNone) continue;  // constant source
          hi = std::max(hi, lv.gate_level[g.value]);
          lo = std::min(lo, lv.gate_minlevel[g.value]);
        }
        if (hi == kNone) {
          // Primary input, constant signal, or dangling source: level 0.
          lo = hi = 0;
        }
        lv.net_level[n.value] = hi;
        lv.net_minlevel[n.value] = lo;
        lv.depth = std::max(lv.depth, hi);
      },
      [&](GateId g) {
        if (worklist) worklist->push_back(g);
        const Gate& gate = nl.gate(g);
        if (gate.inputs.empty()) {
          // Constant generators contribute level 0 to their output net.
          lv.gate_level[g.value] = kNone;
          lv.gate_minlevel[g.value] = kNone;
          return;
        }
        int lo = std::numeric_limits<int>::max();
        int hi = 0;
        for (NetId in : gate.inputs) {
          hi = std::max(hi, lv.net_level[in.value]);
          lo = std::min(lo, lv.net_minlevel[in.value]);
        }
        const int d = nl.delay(g);
        lv.gate_level[g.value] = hi + d;
        lv.gate_minlevel[g.value] = lo + d;
      });

  // Constant gates end up marked kNone; normalize to 0 for consumers.
  for (std::size_t i = 0; i < nl.gate_count(); ++i) {
    if (lv.gate_level[i] == kNone) {
      lv.gate_level[i] = 0;
      lv.gate_minlevel[i] = 0;
    }
  }
  return lv;
}

}  // namespace

Levelization levelize(const Netlist& nl) { return levelize_impl(nl, nullptr); }

Levelization levelize(const Netlist& nl, std::vector<GateId>& order) {
  std::vector<GateId> worklist;
  worklist.reserve(nl.gate_count());
  Levelization lv = levelize_impl(nl, &worklist);
  order = sort_by_level(worklist, lv);
  return lv;
}

std::vector<GateId> topological_gate_order(const Netlist& nl, const Levelization& lv) {
  // The worklist is LIFO, so the order it yields is already topological but
  // not level-sorted.
  std::vector<GateId> worklist;
  worklist.reserve(nl.gate_count());
  run_worklist(nl, [](NetId) {}, [&](GateId g) { worklist.push_back(g); });
  return sort_by_level(worklist, lv);
}

std::vector<GateId> topological_gate_order(const Netlist& nl) {
  std::vector<GateId> order;
  (void)levelize(nl, order);
  return order;
}

}  // namespace udsim
