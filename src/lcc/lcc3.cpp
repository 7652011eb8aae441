#include "lcc/lcc3.h"

#include "analysis/levelize.h"
#include "ir/schedule.h"

namespace udsim {

namespace {

/// Emits the dual-rail ops for one gate.
class DualRailEmitter {
 public:
  DualRailEmitter(Program& p, const Lcc3Compiled& c, std::uint32_t scratch_base)
      : p_(p), c_(c), scratch_(scratch_base) {}

  void emit(const Netlist& nl, GateId gid) {
    const Gate& g = nl.gate(gid);
    const std::uint32_t oh = c_.net_h[g.output.value];
    const std::uint32_t ol = c_.net_l[g.output.value];
    switch (g.type) {
      case GateType::Const0:
      case GateType::Const1:
        return;  // arena-init handles constants
      case GateType::Buf:
      case GateType::Dff:
        op(OpCode::Copy, oh, h(g.inputs[0]));
        op(OpCode::Copy, ol, l(g.inputs[0]));
        return;
      case GateType::Not:
        op(OpCode::Copy, oh, l(g.inputs[0]));
        op(OpCode::Copy, ol, h(g.inputs[0]));
        return;
      case GateType::And:
      case GateType::WiredAnd:
      case GateType::Nand:
        reduce(g, oh, ol, OpCode::And, OpCode::AccAnd, OpCode::Or, OpCode::AccOr,
               g.type == GateType::Nand);
        return;
      case GateType::Or:
      case GateType::WiredOr:
      case GateType::Nor:
        reduce(g, oh, ol, OpCode::Or, OpCode::AccOr, OpCode::And, OpCode::AccAnd,
               g.type == GateType::Nor);
        return;
      case GateType::Xor:
      case GateType::Xnor:
        xor_reduce(g, oh, ol, g.type == GateType::Xnor);
        return;
    }
  }

 private:
  void op(OpCode code, std::uint32_t dst, std::uint32_t a = 0, std::uint32_t b = 0) {
    p_.ops.push_back({code, 0, dst, a, b});
  }
  [[nodiscard]] std::uint32_t h(NetId n) const { return c_.net_h[n.value]; }
  [[nodiscard]] std::uint32_t l(NetId n) const { return c_.net_l[n.value]; }

  /// AND/OR family: one rail reduces with `pair/acc`, the other with the
  /// dual ops; inverted types swap the destination rails.
  void reduce(const Gate& g, std::uint32_t oh, std::uint32_t ol, OpCode pair,
              OpCode acc, OpCode dual_pair, OpCode dual_acc, bool invert) {
    const std::uint32_t dh = invert ? ol : oh;
    const std::uint32_t dl = invert ? oh : ol;
    if (g.inputs.size() == 1) {
      op(OpCode::Copy, dh, h(g.inputs[0]));
      op(OpCode::Copy, dl, l(g.inputs[0]));
      return;
    }
    op(pair, dh, h(g.inputs[0]), h(g.inputs[1]));
    op(dual_pair, dl, l(g.inputs[0]), l(g.inputs[1]));
    for (std::size_t i = 2; i < g.inputs.size(); ++i) {
      op(acc, dh, h(g.inputs[i]));
      op(dual_acc, dl, l(g.inputs[i]));
    }
  }

  /// XOR family: fold pairwise through two scratch rails.
  void xor_reduce(const Gate& g, std::uint32_t oh, std::uint32_t ol, bool invert) {
    std::uint32_t ah = h(g.inputs[0]);
    std::uint32_t al = l(g.inputs[0]);
    const std::uint32_t u1 = scratch_;
    const std::uint32_t u2 = scratch_ + 1;
    const std::uint32_t u3 = scratch_ + 2;
    const std::uint32_t u4 = scratch_ + 3;
    const std::uint32_t acc_h = scratch_ + 4;
    const std::uint32_t acc_l = scratch_ + 5;
    for (std::size_t i = 1; i < g.inputs.size(); ++i) {
      const std::uint32_t bh = h(g.inputs[i]);
      const std::uint32_t bl = l(g.inputs[i]);
      // next_h = ah&bl | al&bh ; next_l = ah&bh | al&bl — all four products
      // read the *old* rails, so they precede both accumulator writes.
      op(OpCode::And, u1, ah, bl);
      op(OpCode::And, u2, al, bh);
      op(OpCode::And, u3, ah, bh);
      op(OpCode::And, u4, al, bl);
      op(OpCode::Or, acc_h, u1, u2);
      op(OpCode::Or, acc_l, u3, u4);
      ah = acc_h;
      al = acc_l;
    }
    op(OpCode::Copy, invert ? ol : oh, ah);
    op(OpCode::Copy, invert ? oh : ol, al);
  }

  Program& p_;
  const Lcc3Compiled& c_;
  std::uint32_t scratch_;
};

}  // namespace

Lcc3Compiled compile_lcc3(const Netlist& nl, bool packed, int word_bits) {
  nl.validate();
  for (const Net& n : nl.nets()) {
    if (n.drivers.size() > 1) {
      throw NetlistError("compile_lcc3 requires lowered wired nets");
    }
  }
  Lcc3Compiled out;
  Program& p = out.program;
  p.word_bits = word_bits;
  out.net_h.resize(nl.net_count());
  out.net_l.resize(nl.net_count());
  for (std::uint32_t n = 0; n < nl.net_count(); ++n) {
    out.net_h[n] = 2 * n;
    out.net_l[n] = 2 * n + 1;
  }
  // Six pass-local scratch rails above the nets' rails; schedule_runs
  // renames them per value and sizes the arena to their peak.
  const auto scratch_base = static_cast<std::uint32_t>(2 * nl.net_count());
  p.arena_words = scratch_base + 6;
  p.input_words = static_cast<std::uint32_t>(2 * nl.primary_inputs().size());

  for (const Gate& g : nl.gates()) {
    if (g.type == GateType::Const0) {
      p.arena_init.push_back({out.net_h[g.output.value], 0});
      p.arena_init.push_back({out.net_l[g.output.value], ~std::uint64_t{0}});
    } else if (g.type == GateType::Const1) {
      p.arena_init.push_back({out.net_h[g.output.value], ~std::uint64_t{0}});
      p.arena_init.push_back({out.net_l[g.output.value], 0});
    }
  }
  for (std::uint32_t i = 0; i < nl.primary_inputs().size(); ++i) {
    const NetId pi = nl.primary_inputs()[i];
    const OpCode load = packed ? OpCode::LoadWord : OpCode::LoadBit;
    p.ops.push_back({load, 0, out.net_h[pi.value], 2 * i, 0});
    p.ops.push_back({load, 0, out.net_l[pi.value], 2 * i + 1, 0});
  }
  DualRailEmitter emitter(p, out, scratch_base);
  for (GateId gid : topological_gate_order(nl)) {
    emitter.emit(nl, gid);
  }
  schedule_runs(p, scratch_base);
  return out;
}

XInitResult x_initialization(const BrokenCircuit& bc,
                             std::span<const Tri> external_inputs, int max_cycles) {
  const std::size_t n_ext = bc.comb.primary_inputs().size() - bc.regs.size();
  if (external_inputs.size() != n_ext) {
    throw NetlistError("x_initialization: wrong external input count");
  }
  Lcc3Sim<> sim(bc.comb);
  XInitResult result;
  result.state.assign(bc.regs.size(), Tri::X);
  std::vector<Tri> v(bc.comb.primary_inputs().size());
  for (int cycle = 1; cycle <= max_cycles; ++cycle) {
    for (std::size_t i = 0; i < n_ext; ++i) v[i] = external_inputs[i];
    for (std::size_t r = 0; r < bc.regs.size(); ++r) v[n_ext + r] = result.state[r];
    sim.step(v);
    std::vector<Tri> next(bc.regs.size());
    for (std::size_t r = 0; r < bc.regs.size(); ++r) {
      next[r] = sim.value(bc.regs[r].d);
    }
    result.cycles = cycle;
    const bool fixed = next == result.state;
    result.state = std::move(next);
    if (fixed) break;
  }
  for (std::size_t r = 0; r < bc.regs.size(); ++r) {
    if (result.state[r] == Tri::X) result.unresolved.push_back(r);
  }
  result.fully_initialized = result.unresolved.empty();
  return result;
}

}  // namespace udsim
