#include "pcsim/pcset_sim.h"

#include <algorithm>
#include <stdexcept>

#include "ir/emit_util.h"
#include "ir/schedule.h"
#include "obs/metrics.h"

namespace udsim {

std::uint32_t PCSetCompiled::var_at_or_before(NetId n, int t) const {
  const auto& vars = net_vars.at(n.value);
  std::uint32_t best = 0;
  bool found = false;
  for (const auto& [time, word] : vars) {
    if (time > t) break;
    best = word;
    found = true;
  }
  if (!found) {
    throw std::out_of_range("net has no PC-set element at or before requested time");
  }
  return best;
}

std::uint32_t PCSetCompiled::final_var(NetId n) const {
  const auto& vars = net_vars.at(n.value);
  if (vars.empty()) throw std::out_of_range("net has no variables");
  return vars.back().second;
}

std::vector<std::string> pcset_var_names(const Netlist& nl,
                                         const PCSetCompiled& c) {
  std::vector<std::string> names(c.program.arena_words);
  for (std::uint32_t n = 0; n < c.net_vars.size(); ++n) {
    for (const auto& [time, word] : c.net_vars[n]) {
      names[word] = nl.net(NetId{n}).name + "_" + std::to_string(time);
    }
  }
  return names;
}

PCSetCompiled compile_pcset(const Netlist& nl, std::span<const NetId> monitored,
                            int word_bits, const CompileGuard& guard) {
  nl.validate();
  for (const Net& n : nl.nets()) {
    if (n.drivers.size() > 1) {
      throw NetlistError("compile_pcset requires lowered wired nets (net '" +
                         n.name + "' has several drivers)");
    }
  }
  MetricsRegistry* const reg = guard.metrics;
  TraceSpan total_span(reg, "compile.total");
  PCSetCompiled out;
  out.monitored.assign(monitored.begin(), monitored.end());
  if (out.monitored.empty()) {
    out.monitored = nl.primary_outputs();
  }

  const PCSetAnalysis a = analyse_pcset(nl, out.monitored, guard);
  const PCSets& pc = a.pc;
  if (!guard.budget.unlimited()) {
    // Exact, from the zero-inserted sets the emission below reads.
    guard.enforce(pcset_cost(nl, a, word_bits), /*predicted=*/true);
  }
  guard.check_cancel("compile.emit");
  TraceSpan emit_span_outer(reg, "compile.emit");

  Program& p = out.program;
  p.word_bits = word_bits;
  p.input_words = static_cast<std::uint32_t>(nl.primary_inputs().size());

  // ---- variable allocation: one word per (net, PC element) ----------------
  out.net_vars.resize(nl.net_count());
  std::uint32_t next = 0;
  for (std::uint32_t n = 0; n < nl.net_count(); ++n) {
    for (int t : pc.net_pc[n].to_vector()) {
      out.net_vars[n].emplace_back(t, next);
      ++next;
    }
  }
  p.arena_words = next;

  const auto var_of = [&](NetId n, int t) -> std::uint32_t {
    for (const auto& [time, word] : out.net_vars[n.value]) {
      if (time == t) return word;
    }
    throw std::logic_error("missing PC-set variable");
  };

  // ---- constants: arena-resident, no per-vector code ----------------------
  std::vector<bool> is_const_net(nl.net_count(), false);
  for (const Gate& g : nl.gates()) {
    if (!is_constant(g.type)) continue;
    is_const_net[g.output.value] = true;
    p.arena_init.push_back(
        {var_of(g.output, 0), g.type == GateType::Const1 ? ~std::uint64_t{0} : 0});
  }

  // ---- per-vector code -----------------------------------------------------
  // 1. Retained-value initializations: X_0 = X_max for every net that had a
  //    zero inserted (paper: "moving the final value of the net into the
  //    variable that corresponds to the zero PC-set element").
  for (std::uint32_t n = 0; n < nl.net_count(); ++n) {
    const NetId id{n};
    if (nl.net(id).is_primary_input || is_const_net[n]) continue;
    if (!pc.net_pc[n].test(0)) continue;
    const std::uint32_t v0 = var_of(id, 0);
    const std::uint32_t vmax = out.net_vars[n].back().second;
    if (v0 != vmax) p.ops.push_back({OpCode::Copy, 0, v0, vmax, 0});
  }
  // 2. Primary-input loads.
  for (std::uint32_t i = 0; i < nl.primary_inputs().size(); ++i) {
    const NetId pi = nl.primary_inputs()[i];
    p.ops.push_back({OpCode::LoadWord, 0, var_of(pi, 0), i, 0});
  }
  // 3. Gate simulations in levelized order, one per PC-set element.
  std::vector<std::uint32_t> operands;
  for (GateId gid : a.order) {
    const Gate& g = nl.gate(gid);
    if (is_constant(g.type)) continue;
    const int d = nl.delay(gid);
    for (int t : pc.gate_pc[gid.value].to_vector()) {
      if (t == 0) continue;  // zero element: value retained, no simulation
      operands.clear();
      for (NetId in : g.inputs) {
        // Largest element strictly smaller than t for unit delay;
        // <= t for zero-delay resolvers.
        const int limit = t - d + 1;
        const int src = pc.net_pc[in.value].max_bit_below(static_cast<std::size_t>(limit));
        if (src < 0) {
          throw std::logic_error("zero insertion failed to provide an operand");
        }
        operands.push_back(var_of(in, src));
      }
      emit_gate_word(p.ops, g.type, var_of(g.output, t), operands);
    }
  }
  schedule_runs(p);

  // ---- output routine: the PRINT pseudo-gate -------------------------------
  DynBitset print_set(static_cast<std::size_t>(pc.depth) + 1);
  for (NetId m : out.monitored) print_set.or_with(pc.net_pc[m.value]);
  for (int t : print_set.to_vector()) {
    out.print_times.push_back(t);
    std::vector<std::uint32_t> row;
    row.reserve(out.monitored.size());
    for (NetId m : out.monitored) {
      const int src = pc.net_pc[m.value].max_bit_below(static_cast<std::size_t>(t) + 1);
      if (src < 0) throw std::logic_error("monitored net lacks a printable variable");
      row.push_back(var_of(m, src));
    }
    out.print_vars.push_back(std::move(row));
  }
  guard.accept(p, EngineKind::PCSet, nl.net_count());
  if (reg) {
    reg->counter("compile.depth").set_max(static_cast<std::uint64_t>(pc.depth));
    reg->counter("compile.pcset_variables").add(p.arena_words);
    reg->counter("compile.print_times").add(out.print_times.size());
  }
  return out;
}

}  // namespace udsim
