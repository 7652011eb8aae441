// Net/gate alignments for shift elimination (paper §4, Figs. 10-18).
//
// Bit p of a net's bit-field represents time p + alignment(net); a gate's
// alignment is the time of bit 0 of its raw (unshifted) result. With all
// alignments zero and gate alignments equal to the gate delay, this
// degenerates to the unoptimized parallel technique (one left shift per
// gate). The two optimization algorithms assign alignments so that most
// shifts vanish:
//  - path tracing (paper Fig. 17): traces upward from primary outputs,
//    never expands the bit-field, generates only right shifts; computed as
//    one reverse-topological sweep;
//  - cycle breaking: removes a minimal set of edges from the undirected
//    network graph, then propagates alignments over the remaining forest;
//    may expand bit-fields and require left shifts.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "analysis/levelize.h"
#include "netlist/netlist.h"

namespace udsim {

struct AlignmentPlan {
  std::vector<int> net_align;   ///< per net: time of bit 0 of its field
  std::vector<int> gate_align;  ///< per gate: time of bit 0 of its raw result

  /// Shift applied to input net `in` when feeding gate `g`:
  ///   shifted bit p = input bit (p + s);  s > 0 is a right shift,
  ///   s < 0 a left shift (needs the previous vector's value at the bottom).
  [[nodiscard]] int input_shift(const Netlist& nl, GateId g, NetId in) const {
    return gate_align[g.value] - nl.delay(g) - net_align[in.value];
  }

  /// Shift applied to the raw result of gate `g` when storing to its output:
  ///   net bit q = result bit (q + s); s < 0 is a left shift (the
  ///   unoptimized technique's post-gate shift is s = -delay).
  [[nodiscard]] int output_shift(const Netlist& nl, GateId g) const {
    return net_align[nl.gate(g).output.value] - gate_align[g.value];
  }

  /// Field width in bits: level - alignment + 1 (paper's formula).
  [[nodiscard]] int width_bits(const Levelization& lv, NetId n) const {
    return lv.net_level[n.value] - net_align[n.value] + 1;
  }
};

/// The identity plan of the unoptimized parallel technique: every net at
/// alignment 0, every gate at alignment delay (so each gate retains one
/// left shift at its output).
[[nodiscard]] AlignmentPlan align_unoptimized(const Netlist& nl, const Levelization& lv);

/// Path-tracing shift elimination (paper Fig. 17): the fixpoint of its
/// traces, computed in one reverse-topological sweep, O(nets + pins). A
/// net's alignment is the least of its seed and, over its reader gates g,
/// gate_align[g] - delay(g); a gate's alignment is its output net's. Seeds
/// are minlevel on every primary output and on every fanout-free net, so
/// dead regions (nets that reach no primary output) are traced from their
/// ends and still receive legal alignments.
[[nodiscard]] AlignmentPlan align_path_tracing(const Netlist& nl, const Levelization& lv);

/// The same over a topological gate order the caller already holds
/// (topological_gate_order(nl, lv) or any other that lists every gate once,
/// after the drivers of its inputs); throws std::invalid_argument when the
/// order's length is not the gate count.
[[nodiscard]] AlignmentPlan align_path_tracing(const Netlist& nl, const Levelization& lv,
                                               std::span<const GateId> order);

/// Cycle-breaking shift elimination: DFS on the undirected network graph,
/// back edges removed, alignments propagated over the spanning forest, then
/// each component shifted down by a constant so that every alignment is
/// legal (paper: "a second pass is required to (possibly) reduce all
/// alignments by a constant amount").
[[nodiscard]] AlignmentPlan align_cycle_breaking(const Netlist& nl, const Levelization& lv);

/// Throws NetlistError if the plan violates a legality condition:
///  1. alignment(net) <= minlevel(net) for every net;
///  2. left input shifts only from nets with alignment < minlevel;
///  3. left output shifts only onto nets with gate_align <= minlevel(net).
void check_alignment_plan(const Netlist& nl, const Levelization& lv,
                          const AlignmentPlan& plan);

struct AlignmentStats {
  std::size_t retained_shift_sites = 0;  ///< distinct (gate,input) + output sites, shift != 0
  std::size_t left_shift_sites = 0;
  int max_width_bits = 0;
  double avg_width_bits = 0.0;
  int max_width_words = 0;
  long long total_width_words = 0;
};

[[nodiscard]] AlignmentStats alignment_stats(const Netlist& nl, const Levelization& lv,
                                             const AlignmentPlan& plan, int word_bits);

}  // namespace udsim
