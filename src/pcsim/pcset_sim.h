// The PC-set method of compiled unit-delay simulation (paper §2).
//
// One variable per (net, PC-set element); one straight-line gate evaluation
// per element of each gate's PC-set; operands chosen as "the largest element
// strictly smaller than the element being generated" (<= for zero-delay
// wired resolvers). Inserted zeros become `X_0 = X_max;` initializations,
// exactly as in paper Fig. 4. The output routine is the PRINT pseudo-gate:
// one output vector per element of the union of the monitored nets' PC-sets.
//
// Because every op is bitwise, the same program simulates word_bits (32 to
// 256) *independent vector streams* at once when inputs are packed one
// stream per bit-lane — the data-parallel extension the paper notes the
// PC-set method is amenable to (and the parallel technique is not).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "analysis/compile_budget.h"
#include "analysis/levelize.h"
#include "analysis/pcset.h"
#include "core/kernel_runner.h"
#include "netlist/netlist.h"

namespace udsim {

struct PCSetCompiled {
  Program program;
  std::vector<NetId> monitored;

  /// Per net: (time, arena word) pairs sorted by time — its variables.
  std::vector<std::vector<std::pair<int, std::uint32_t>>> net_vars;

  /// PRINT-gate PC-set: the times at which an output vector is produced.
  std::vector<int> print_times;
  /// print_vars[i][j]: arena word giving monitored[j]'s value at
  /// print_times[i].
  std::vector<std::vector<std::uint32_t>> print_vars;

  /// Arena word of the net's variable for time t' = largest PC element <= t;
  /// throws std::out_of_range if the net has no element <= t.
  [[nodiscard]] std::uint32_t var_at_or_before(NetId n, int t) const;
  /// Arena word of the net's final-value variable (largest PC element).
  [[nodiscard]] std::uint32_t final_var(NetId n) const;
};

/// Compile. `monitored` defaults (empty span) to the primary outputs.
/// Inputs load as whole words: one independent vector stream per bit lane.
/// Throws BudgetExceeded when the predicted or emitted cost crosses
/// `guard.budget`; records compile diagnostics into `guard.diag` when set.
[[nodiscard]] PCSetCompiled compile_pcset(const Netlist& nl,
                                          std::span<const NetId> monitored = {},
                                          int word_bits = 32,
                                          const CompileGuard& guard = {});

/// The paper's variable names (`D_0`, `E_2`: net name, PC-set element) of
/// every arena word of `c`, indexed by arena word; derived from
/// `c.net_vars`, since the compiled program carries no names. Pass the
/// result to emit_c for `/* D_0 */` comments.
[[nodiscard]] std::vector<std::string> pcset_var_names(const Netlist& nl,
                                                       const PCSetCompiled& c);

/// Runtime wrapper: steps one vector at a time (lane 0), exposes the value
/// history of monitored nets.
template <class Word = std::uint32_t>
class PCSetSim {
 public:
  PCSetSim(const Netlist& nl, std::span<const NetId> monitored = {},
           const CompileGuard& guard = {})
      : nl_(nl),
        compiled_(compile_pcset(nl, monitored,
                                static_cast<int>(sizeof(Word) * 8), guard)),
        runner_(compiled_.program) {}

  // runner_ references compiled_.program; relocation would dangle.
  PCSetSim(const PCSetSim&) = delete;
  PCSetSim& operator=(const PCSetSim&) = delete;

  void step(std::span<const Bit> pi_values) {
    in_.assign(nl_.primary_inputs().size(), 0);
    for (std::size_t i = 0; i < in_.size(); ++i) in_[i] = pi_values[i] & 1;
    runner_.run(in_);
  }

  /// Value of a monitored net at time t for the last vector (valid for any
  /// t in [0, depth]; between PC elements the value holds).
  [[nodiscard]] Bit value_at(NetId n, int t) const {
    return runner_.bit(compiled_.var_at_or_before(n, t), 0);
  }
  [[nodiscard]] Bit final_value(NetId n) const {
    return runner_.bit(compiled_.final_var(n), 0);
  }
  /// Arena location of the net's settled value (batch-layer probe).
  [[nodiscard]] ArenaProbe final_arena_probe(NetId n) const {
    return {compiled_.final_var(n), 0};
  }
  [[nodiscard]] const PCSetCompiled& compiled() const noexcept { return compiled_; }

  /// Attach runtime execution counters (obs/pass_cost.h).
  void set_metrics(MetricsRegistry* reg) { runner_.set_metrics(reg); }
  /// Cooperative stop between vectors (see KernelRunner::set_cancel).
  void set_cancel(const CancelToken* token) noexcept { runner_.set_cancel(token); }

 private:
  const Netlist& nl_;
  PCSetCompiled compiled_;
  KernelRunner<Word> runner_;
  std::vector<Word> in_;
};

}  // namespace udsim
