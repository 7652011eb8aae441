#include "lcc/lcc.h"

#include "analysis/levelize.h"
#include "ir/emit_util.h"
#include "ir/schedule.h"
#include "obs/metrics.h"

namespace udsim {

std::vector<std::string> lcc_var_names(const Netlist& nl, const LccCompiled& c) {
  std::vector<std::string> names(c.program.arena_words);
  for (std::uint32_t n = 0; n < c.net_var.size(); ++n) {
    names[c.net_var[n]] = nl.net(NetId{n}).name;
  }
  return names;
}

LccCompiled compile_lcc(const Netlist& nl, int word_bits,
                        const CompileGuard& guard) {
  nl.validate();
  if (!guard.budget.unlimited()) {
    guard.enforce(estimate_compile_cost(nl, EngineKind::ZeroDelayLcc, word_bits),
                  /*predicted=*/true);
  }
  MetricsRegistry* const reg = guard.metrics;
  TraceSpan total_span(reg, "compile.total");
  LccCompiled out;
  Program& p = out.program;
  p.word_bits = word_bits;

  out.net_var.resize(nl.net_count());
  for (std::uint32_t n = 0; n < nl.net_count(); ++n) out.net_var[n] = n;
  p.arena_words = static_cast<std::uint32_t>(nl.net_count());
  p.input_words = static_cast<std::uint32_t>(nl.primary_inputs().size());

  // Constant nets: fixed arena words, no per-vector code.
  for (const Gate& g : nl.gates()) {
    if (g.type == GateType::Const0) p.arena_init.push_back({out.net_var[g.output.value], 0});
    if (g.type == GateType::Const1) {
      p.arena_init.push_back({out.net_var[g.output.value], ~std::uint64_t{0}});
    }
  }

  const std::vector<GateId> order = [&] {
    guard.check_cancel("compile.levelize");
    TraceSpan span(reg, "compile.levelize");
    return topological_gate_order(nl);
  }();
  {
    guard.check_cancel("compile.emit");
    TraceSpan span(reg, "compile.emit");
    for (std::uint32_t i = 0; i < nl.primary_inputs().size(); ++i) {
      const NetId pi = nl.primary_inputs()[i];
      p.ops.push_back({OpCode::LoadWord, 0, out.net_var[pi.value], i, 0});
    }
    std::vector<std::uint32_t> operands;
    for (GateId gid : order) {
      const Gate& g = nl.gate(gid);
      if (is_constant(g.type)) continue;
      operands.clear();
      for (NetId in : g.inputs) operands.push_back(out.net_var[in.value]);
      emit_gate_word(p.ops, g.type, out.net_var[g.output.value], operands);
    }
    schedule_runs(p);
    // def_end from the run-ordered program: one past each variable's last
    // writer, so forcing splices after the net's whole definition.
    std::vector<std::uint32_t> last_write(p.arena_words, 0);
    for (std::uint32_t i = 0; i < p.ops.size(); ++i) last_write[p.ops[i].dst] = i + 1;
    out.def_end.resize(nl.net_count());
    for (std::uint32_t n = 0; n < nl.net_count(); ++n) {
      out.def_end[n] = last_write[out.net_var[n]];
    }
  }
  guard.accept(p, EngineKind::ZeroDelayLcc, nl.net_count());
  return out;
}

}  // namespace udsim
