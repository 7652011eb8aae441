// Zero-delay Levelized Compiled Code simulation (paper §1, Fig. 1).
//
// One variable per net, one straight-line gate evaluation per gate in
// levelized order, final values only. Inputs load as whole words and every
// op is lane-wise, so the same program simulates one independent input
// vector per bit lane (the batch layer packs word_bits vectors per pass).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "analysis/compile_budget.h"
#include "core/kernel_runner.h"
#include "netlist/netlist.h"

namespace udsim {

struct LccCompiled {
  Program program;
  std::vector<std::uint32_t> net_var;  ///< arena word of each net's value
  /// Per net: one past the position of the last op writing its variable in
  /// the run-ordered program (0 when the value comes from arena_init, i.e.
  /// constants). Fault simulation splices forcing ops at these points.
  std::vector<std::uint32_t> def_end;
};

/// Generate the zero-delay LCC program. Throws BudgetExceeded when the
/// predicted or emitted cost crosses `guard.budget`; records compile
/// diagnostics into `guard.diag` when set.
[[nodiscard]] LccCompiled compile_lcc(const Netlist& nl, int word_bits = 32,
                                      const CompileGuard& guard = {});

/// Per arena word of `c`, its emit_c comment name: the net it holds.
[[nodiscard]] std::vector<std::string> lcc_var_names(const Netlist& nl,
                                                     const LccCompiled& c);

/// Convenience runtime wrapper: one vector per step, in lane 0.
template <class Word = std::uint32_t>
class LccSim {
 public:
  explicit LccSim(const Netlist& nl, const CompileGuard& guard = {})
      : nl_(nl),
        compiled_(compile_lcc(nl, static_cast<int>(sizeof(Word) * 8), guard)),
        runner_(compiled_.program) {}

  // runner_ references compiled_.program; relocation would dangle.
  LccSim(const LccSim&) = delete;
  LccSim& operator=(const LccSim&) = delete;

  void step(std::span<const Bit> pi_values) {
    in_.assign(nl_.primary_inputs().size(), 0);
    for (std::size_t i = 0; i < in_.size(); ++i) in_[i] = pi_values[i] & 1;
    runner_.run(in_);
  }

  [[nodiscard]] Bit value(NetId n) const {
    return runner_.bit(compiled_.net_var[n.value], 0);
  }
  /// Arena location of the net's settled value (batch-layer probe).
  [[nodiscard]] ArenaProbe final_arena_probe(NetId n) const {
    return {compiled_.net_var[n.value], 0};
  }
  [[nodiscard]] const LccCompiled& compiled() const noexcept { return compiled_; }

  /// Attach runtime execution counters (obs/pass_cost.h).
  void set_metrics(MetricsRegistry* reg) { runner_.set_metrics(reg); }
  /// Cooperative stop between vectors (see KernelRunner::set_cancel).
  void set_cancel(const CancelToken* token) noexcept { runner_.set_cancel(token); }

 private:
  const Netlist& nl_;
  LccCompiled compiled_;
  KernelRunner<Word> runner_;
  std::vector<Word> in_;
};

}  // namespace udsim
