// Compiled three-valued (0/1/X) zero-delay simulation via dual-rail
// encoding: every net carries two words, h = "may be 1", l = "may be 0"
// (0 = (0,1), 1 = (1,0), X = (1,1)). Logic stays bit-parallel:
//   AND: h = a.h & b.h,                 l = a.l | b.l
//   OR : h = a.h | b.h,                 l = a.l & b.l
//   NOT: h = in.l,                      l = in.h
//   XOR: h = a.h&b.l | a.l&b.h,         l = a.h&b.h | a.l&b.l
// so one packed pass runs 32/64 independent three-valued vectors. The main
// application is X-propagation / initialization analysis: which outputs (or
// register inputs of a broken sequential core) stay unknown.
#pragma once

#include <span>
#include <vector>

#include "core/kernel_runner.h"
#include "gen/sequential.h"
#include "netlist/netlist.h"

namespace udsim {

struct Lcc3Compiled {
  Program program;
  std::vector<std::uint32_t> net_h;  ///< arena word: may-be-one rail
  std::vector<std::uint32_t> net_l;  ///< arena word: may-be-zero rail
};

/// Generate the dual-rail zero-delay program. Inputs are two words per
/// primary input (h rail then l rail, in primary-input order).
[[nodiscard]] Lcc3Compiled compile_lcc3(const Netlist& nl, bool packed = false,
                                        int word_bits = 32);

/// Scalar runtime wrapper.
template <class Word = std::uint32_t>
class Lcc3Sim {
 public:
  explicit Lcc3Sim(const Netlist& nl)
      : nl_(nl), compiled_(compile_lcc3(nl, false, static_cast<int>(sizeof(Word) * 8))),
        runner_(compiled_.program) {}

  Lcc3Sim(const Lcc3Sim&) = delete;
  Lcc3Sim& operator=(const Lcc3Sim&) = delete;

  void step(std::span<const Tri> pi_values) {
    in_.assign(2 * nl_.primary_inputs().size(), 0);
    for (std::size_t i = 0; i < pi_values.size(); ++i) {
      in_[2 * i] = pi_values[i] != Tri::Zero ? Word{1} : Word{0};     // h
      in_[2 * i + 1] = pi_values[i] != Tri::One ? Word{1} : Word{0};  // l
    }
    runner_.run(in_);
  }

  [[nodiscard]] Tri value(NetId n) const {
    const bool h = runner_.bit(compiled_.net_h[n.value], 0);
    const bool l = runner_.bit(compiled_.net_l[n.value], 0);
    if (h && l) return Tri::X;
    return h ? Tri::One : Tri::Zero;
  }
  [[nodiscard]] const Lcc3Compiled& compiled() const noexcept { return compiled_; }

 private:
  const Netlist& nl_;
  Lcc3Compiled compiled_;
  KernelRunner<Word> runner_;
  std::vector<Word> in_;
};

struct XInitResult {
  int cycles = 0;              ///< clock cycles simulated
  bool fully_initialized = false;
  std::vector<Tri> state;      ///< final register values (regs order)
  std::vector<std::size_t> unresolved;  ///< indices of registers still X
};

/// Initialization (reset) analysis of a broken sequential core: start every
/// register at X, clock with the given external input values (commonly a
/// reset pattern), and iterate until the register state reaches a fixed
/// point or `max_cycles` passes.
[[nodiscard]] XInitResult x_initialization(const BrokenCircuit& bc,
                                           std::span<const Tri> external_inputs,
                                           int max_cycles = 64);

}  // namespace udsim
