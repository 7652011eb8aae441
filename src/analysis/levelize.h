// Levelization and the minlevel variant (paper §1–2).
//
// The level of a net is the length of the longest input→net path (latest
// time, in gate delays, at which the net may change); the minlevel is the
// shortest such path (earliest permitted change). Primary inputs, constant
// signals, and dangling sources are level 0. Wired connections take the
// max (level) / min (minlevel) of their drivers without an extra delay.
#pragma once

#include <vector>

#include "netlist/netlist.h"

namespace udsim {

struct Levelization {
  std::vector<int> net_level;
  std::vector<int> net_minlevel;
  std::vector<int> gate_level;     ///< level of the gate's output computation
  std::vector<int> gate_minlevel;
  int depth = 0;                   ///< max net level; "levels" = depth + 1

  [[nodiscard]] int level(NetId n) const { return net_level.at(n.value); }
  [[nodiscard]] int minlevel(NetId n) const { return net_minlevel.at(n.value); }
};

/// Compute levels and minlevels with the paper's counting worklist
/// (a variation of topological sort; throws NetlistError on cycles).
[[nodiscard]] Levelization levelize(const Netlist& nl);

/// The same, also setting `order` to topological_gate_order(nl, result)
/// from the same worklist pass.
[[nodiscard]] Levelization levelize(const Netlist& nl, std::vector<GateId>& order);

/// Gate indices sorted by (gate level, then zero-delay resolvers after their
/// drivers): a valid evaluation order for compiled code generation. `lv`
/// must be levelize(nl); the one-argument form computes both in one pass.
[[nodiscard]] std::vector<GateId> topological_gate_order(const Netlist& nl,
                                                         const Levelization& lv);
[[nodiscard]] std::vector<GateId> topological_gate_order(const Netlist& nl);

}  // namespace udsim
