#include "analysis/alignment.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <unordered_set>

#include "analysis/network_graph.h"

namespace udsim {

namespace {
constexpr int kUnassigned = std::numeric_limits<int>::max();
}

AlignmentPlan align_unoptimized(const Netlist& nl, const Levelization&) {
  AlignmentPlan plan;
  plan.net_align.assign(nl.net_count(), 0);
  plan.gate_align.resize(nl.gate_count());
  for (std::uint32_t i = 0; i < nl.gate_count(); ++i) {
    plan.gate_align[i] = nl.delay(GateId{i});
  }
  return plan;
}

AlignmentPlan align_path_tracing(const Netlist& nl, const Levelization& lv) {
  return align_path_tracing(nl, lv, topological_gate_order(nl, lv));
}

AlignmentPlan align_path_tracing(const Netlist& nl, const Levelization& lv,
                                 std::span<const GateId> order) {
  if (order.size() != nl.gate_count()) {
    throw std::invalid_argument("align_path_tracing: order must list every gate once");
  }
  // Paper Fig. 17's traces from the primary outputs, as one sweep: a net's
  // alignment is the least of its seed and, over its reader gates g,
  // gate_align[g] - delay(g); a gate takes its output net's alignment.
  // Walking the gates in reverse topological order finishes every reader of
  // a net before its drivers, so each output net is final when its gate is
  // visited. Seeds are minlevel on primary outputs and on fanout-free nets
  // (the starts of dead regions); a seed anywhere else is never the least.
  AlignmentPlan plan;
  plan.net_align.resize(nl.net_count());
  for (std::uint32_t n = 0; n < nl.net_count(); ++n) {
    const Net& net = nl.net(NetId{n});
    plan.net_align[n] = net.is_primary_output || net.fanout.empty()
                            ? lv.net_minlevel[n]
                            : kUnassigned;
  }
  plan.gate_align.resize(nl.gate_count());
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const Gate& g = nl.gate(*it);
    const int a = plan.net_align[g.output.value];
    plan.gate_align[it->value] = a;
    const int in_align = a - nl.delay(*it);
    for (NetId in : g.inputs) {
      plan.net_align[in.value] = std::min(plan.net_align[in.value], in_align);
    }
  }
  return plan;
}

AlignmentPlan align_cycle_breaking(const Netlist& nl, const Levelization& lv) {
  const UndirectedNetworkGraph g = build_network_graph(nl);
  const std::size_t nv = g.vertex_count();

  // --- Pass 1: DFS, keep tree edges, drop back edges. -----------------------
  std::vector<bool> visited(nv, false);
  std::vector<bool> tree_edge(g.edges.size(), false);
  std::vector<bool> edge_used(g.edges.size(), false);
  std::vector<int> component(nv, -1);
  int num_components = 0;

  // Start DFS from primary-output net vertices first (the paper's alignment
  // pass "starts at an arbitrary primary output"); remaining vertices follow.
  std::vector<std::uint32_t> starts;
  starts.reserve(nv);
  for (NetId po : nl.primary_outputs()) starts.push_back(g.net_vertex(po));
  for (std::uint32_t v = 0; v < nv; ++v) starts.push_back(v);

  struct Frame {
    std::uint32_t vertex;
    std::size_t next = 0;  // index into adjacency list
  };
  std::vector<Frame> dfs;
  for (std::uint32_t s : starts) {
    if (visited[s]) continue;
    const int comp = num_components++;
    visited[s] = true;
    component[s] = comp;
    dfs.push_back({s, 0});
    while (!dfs.empty()) {
      Frame& f = dfs.back();
      if (f.next >= g.adjacency[f.vertex].size()) {
        dfs.pop_back();
        continue;
      }
      const std::uint32_t e = g.adjacency[f.vertex][f.next++];
      if (edge_used[e]) continue;
      edge_used[e] = true;
      const std::uint32_t w = g.other(e, f.vertex);
      if (visited[w]) {
        // Back edge: "the most recently traversed edge is removed".
        continue;
      }
      tree_edge[e] = true;
      visited[w] = true;
      component[w] = comp;
      dfs.push_back({w, 0});
    }
  }

  // --- Pass 2: propagate alignments over the spanning forest. ---------------
  AlignmentPlan plan;
  plan.net_align.assign(nl.net_count(), kUnassigned);
  plan.gate_align.assign(nl.gate_count(), kUnassigned);

  const auto align_of = [&](std::uint32_t v) -> int& {
    return g.is_net_vertex(v)
               ? plan.net_align[v]
               : plan.gate_align[v - static_cast<std::uint32_t>(g.num_nets)];
  };

  std::vector<std::uint32_t> bfs;
  for (std::uint32_t s : starts) {
    if (align_of(s) != kUnassigned) continue;
    // Seed value: a net starts at its minlevel; a gate start (possible only
    // in gate-only pathological components) at its own minlevel.
    if (g.is_net_vertex(s)) {
      align_of(s) = lv.net_minlevel[s];
    } else {
      align_of(s) = lv.gate_minlevel[s - g.num_nets];
    }
    bfs.clear();
    bfs.push_back(s);
    while (!bfs.empty()) {
      const std::uint32_t v = bfs.back();
      bfs.pop_back();
      const int a = align_of(v);
      for (std::uint32_t e : g.adjacency[v]) {
        if (!tree_edge[e]) continue;
        const std::uint32_t w = g.other(e, v);
        if (align_of(w) != kUnassigned) continue;
        const int d = nl.delay(GateId{g.edges[e].gate});
        int aw;
        if (g.is_net_vertex(v)) {
          // net -> gate: gates driving the net get the net's alignment,
          // gates reading it get alignment + delay.
          aw = g.edges[e].is_input ? a + d : a;
        } else {
          // gate -> net: inputs get alignment - delay, outputs the same.
          aw = g.edges[e].is_input ? a - d : a;
        }
        align_of(w) = aw;
        bfs.push_back(w);
      }
    }
  }

  // --- Pass 3: per-component constant correction so the plan is legal. ------
  std::vector<int> correction(static_cast<std::size_t>(num_components), 0);
  for (std::uint32_t n = 0; n < nl.net_count(); ++n) {
    const int comp = component[g.net_vertex(NetId{n})];
    correction[comp] = std::max(correction[comp],
                                plan.net_align[n] - lv.net_minlevel[n]);
  }
  for (std::uint32_t gi = 0; gi < nl.gate_count(); ++gi) {
    const Gate& gate = nl.gate(GateId{gi});
    const int comp = component[g.gate_vertex(GateId{gi})];
    // Left input shifts need alignment(in) < minlevel(in) strictly.
    for (NetId in : gate.inputs) {
      if (plan.input_shift(nl, GateId{gi}, in) < 0) {
        correction[comp] = std::max(
            correction[comp], plan.net_align[in.value] - (lv.net_minlevel[in.value] - 1));
      }
    }
    // Left output shifts need gate_align <= minlevel(out).
    if (plan.output_shift(nl, GateId{gi}) < 0) {
      const NetId out = gate.output;
      correction[comp] = std::max(correction[comp],
                                  plan.gate_align[gi] - lv.net_minlevel[out.value]);
    }
  }
  for (std::uint32_t n = 0; n < nl.net_count(); ++n) {
    plan.net_align[n] -= correction[component[g.net_vertex(NetId{n})]];
  }
  for (std::uint32_t gi = 0; gi < nl.gate_count(); ++gi) {
    plan.gate_align[gi] -= correction[component[g.gate_vertex(GateId{gi})]];
  }
  return plan;
}

void check_alignment_plan(const Netlist& nl, const Levelization& lv,
                          const AlignmentPlan& plan) {
  for (std::uint32_t n = 0; n < nl.net_count(); ++n) {
    if (plan.net_align[n] > lv.net_minlevel[n]) {
      throw NetlistError("alignment of net '" + nl.net(NetId{n}).name +
                         "' exceeds its minlevel");
    }
  }
  for (std::uint32_t gi = 0; gi < nl.gate_count(); ++gi) {
    const Gate& gate = nl.gate(GateId{gi});
    for (NetId in : gate.inputs) {
      if (plan.input_shift(nl, GateId{gi}, in) < 0 &&
          plan.net_align[in.value] >= lv.net_minlevel[in.value]) {
        throw NetlistError("left input shift from net '" + nl.net(in).name +
                           "' whose alignment is not below its minlevel");
      }
    }
    if (plan.output_shift(nl, GateId{gi}) < 0) {
      const NetId out = gate.output;
      if (plan.gate_align[gi] > lv.net_minlevel[out.value]) {
        throw NetlistError("left output shift onto net '" + nl.net(out).name +
                           "' would need values older than the previous vector");
      }
    }
  }
}

AlignmentStats alignment_stats(const Netlist& nl, const Levelization& lv,
                               const AlignmentPlan& plan, int word_bits) {
  AlignmentStats st;
  long long width_sum = 0;
  for (std::uint32_t n = 0; n < nl.net_count(); ++n) {
    const int w = plan.width_bits(lv, NetId{n});
    st.max_width_bits = std::max(st.max_width_bits, w);
    width_sum += w;
    const int words = (w + word_bits - 1) / word_bits;
    st.max_width_words = std::max(st.max_width_words, words);
    st.total_width_words += words;
  }
  st.avg_width_bits = nl.net_count()
                          ? static_cast<double>(width_sum) / static_cast<double>(nl.net_count())
                          : 0.0;
  for (std::uint32_t gi = 0; gi < nl.gate_count(); ++gi) {
    const Gate& gate = nl.gate(GateId{gi});
    std::unordered_set<std::uint32_t> seen;
    for (NetId in : gate.inputs) {
      if (!seen.insert(in.value).second) continue;  // duplicate pin, one shift
      const int s = plan.input_shift(nl, GateId{gi}, in);
      if (s != 0) {
        ++st.retained_shift_sites;
        if (s < 0) ++st.left_shift_sites;
      }
    }
    const int s = plan.output_shift(nl, GateId{gi});
    if (s != 0) {
      ++st.retained_shift_sites;
      if (s < 0) ++st.left_shift_sites;
    }
  }
  return st;
}

}  // namespace udsim
