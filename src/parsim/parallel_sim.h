// The parallel technique of compiled unit-delay simulation (paper §3) and
// its optimizations (paper §4).
//
// Every net owns a bit-field in which bit p is the net's value at time
// p + alignment(net). Gates are simulated with word-parallel logical ops;
// the unit delay becomes a one-bit left shift (unoptimized), a right shift
// at the gate inputs (shift elimination), or no shift at all where the
// alignments line up. Bit-field trimming skips whole words that carry no
// PC-set representative.
//
// Invariant maintained by all generated code: every word of every field is
// valid at every bit position — bit p holds the value at time
// min(p + alignment, level) — so word-granular fills (broadcasts of a
// stable bit) compose with funnel shifts without masking.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "analysis/alignment.h"
#include "analysis/compile_budget.h"
#include "analysis/levelize.h"
#include "analysis/trimming.h"
#include "core/kernel_runner.h"
#include "netlist/netlist.h"

namespace udsim {

enum class ShiftElim : std::uint8_t {
  None,          ///< unoptimized: one left shift after every gate (Fig. 6)
  PathTracing,   ///< paper Fig. 17: right shifts at gate inputs only
  CycleBreaking, ///< spanning-forest alignments; may expand fields
};

struct ParallelOptions {
  bool trimming = false;
  ShiftElim shift_elim = ShiftElim::None;
  int word_bits = 32;
  /// Rename the per-gate scratch words while run-ordering the ops
  /// (ir/schedule.h), so the threaded executor dispatches once per long run.
  /// Off, run ordering keeps the reused words and the ops stay near
  /// emission order, whose short live ranges a C compiler keeps in
  /// registers (EngineKind::Native).
  bool rename_scratch = true;
};

struct ParallelCodeStats {
  std::size_t shift_sites = 0;       ///< realignment sites with non-zero shift
  std::size_t shift_ops = 0;         ///< funnel/shift ops emitted
  std::size_t suppressed_stores = 0; ///< per-word stores skipped by trimming
  std::size_t gate_eval_ops = 0;
  int field_words_max = 0;           ///< words per field (uniform in unopt mode)
  int field_bits_max = 0;
};

struct ParallelCompiled {
  Program program;
  ParallelOptions options;
  AlignmentPlan plan;
  Levelization lv;
  std::vector<int> widths;                ///< field width in bits per net
  std::vector<std::uint32_t> net_base;    ///< first arena word of each field
  std::vector<std::uint32_t> net_words;   ///< words per field
  TrimPlan trim;
  ParallelCodeStats stats;

  struct Probe {
    std::uint32_t word;
    std::uint8_t bit;
    bool in_field;  ///< false: t precedes the field (previous-vector value)
  };
  /// Locate the bit holding net n's value at time t (0 <= t <= depth).
  /// Times beyond the net's level clamp to the final-value bit.
  [[nodiscard]] Probe probe(NetId n, int t) const;
  /// The bit holding the net's final (settled) value.
  [[nodiscard]] Probe final_probe(NetId n) const;
};

/// Throws BudgetExceeded when the predicted or emitted cost crosses
/// `guard.budget`; records compile diagnostics (gap-word fallbacks) into
/// `guard.diag` when set.
[[nodiscard]] ParallelCompiled compile_parallel(const Netlist& nl,
                                                const ParallelOptions& options = {},
                                                const CompileGuard& guard = {});

/// Per arena word of `c`, its emit_c comment name, from the field layout:
/// `name` for a field's first word, `name.wK` for word K, empty for scratch.
[[nodiscard]] std::vector<std::string> parallel_var_names(const Netlist& nl,
                                                          const ParallelCompiled& c);

/// The EngineKind label of one parallel-technique option set (used for
/// budget errors and diagnostics).
[[nodiscard]] EngineKind parallel_engine_kind(const ParallelOptions& options) noexcept;

/// Per-pass counter constants the Program alone cannot supply: stores
/// suppressed by word trimming and gap words filled by broadcast instead of
/// evaluation. Every executor of a parallel program (step, run_batch, the
/// resilient batch path, the native backend) attaches these.
[[nodiscard]] inline PassExtras trim_pass_extras(const ParallelCompiled& c) {
  return {{"exec.trimmed_stores_skipped", c.stats.suppressed_stores},
          {"exec.gap_words_filled", c.trim.gap_words}};
}

/// Runtime wrapper: steps vectors and exposes full waveform access.
/// Previous-vector finals are captured before each step so that `value_at`
/// is defined even for times preceding a net's alignment.
template <class Word = std::uint32_t>
class ParallelSim {
 public:
  explicit ParallelSim(const Netlist& nl, const ParallelOptions& options = {},
                       const CompileGuard& guard = {})
      : nl_(nl), compiled_(make(nl, options, guard)), runner_(compiled_.program),
        prev_final_(nl.net_count(), 0) {}

  // runner_ references compiled_.program; relocation would dangle.
  ParallelSim(const ParallelSim&) = delete;
  ParallelSim& operator=(const ParallelSim&) = delete;

  void step(std::span<const Bit> pi_values) {
    for (std::uint32_t n = 0; n < nl_.net_count(); ++n) {
      const auto pr = compiled_.final_probe(NetId{n});
      prev_final_[n] = runner_.bit(pr.word, pr.bit);
    }
    in_.assign(nl_.primary_inputs().size(), 0);
    for (std::size_t i = 0; i < in_.size(); ++i) in_[i] = pi_values[i] & 1;
    runner_.run(in_);
  }

  /// Value of any net at any time 0..depth for the last vector.
  [[nodiscard]] Bit value_at(NetId n, int t) const {
    const auto pr = compiled_.probe(n, t);
    if (!pr.in_field) return prev_final_[n.value];
    return runner_.bit(pr.word, pr.bit);
  }
  [[nodiscard]] Bit final_value(NetId n) const {
    const auto pr = compiled_.final_probe(n);
    return runner_.bit(pr.word, pr.bit);
  }
  /// Arena location of the net's settled value (batch-layer probe).
  [[nodiscard]] ArenaProbe final_arena_probe(NetId n) const {
    const auto pr = compiled_.final_probe(n);
    return {pr.word, pr.bit};
  }
  /// Raw field words of a net (for hazard analysis).
  [[nodiscard]] std::span<const Word> field(NetId n) const {
    return runner_.arena().subspan(compiled_.net_base[n.value],
                                   compiled_.net_words[n.value]);
  }
  [[nodiscard]] const ParallelCompiled& compiled() const noexcept { return compiled_; }

  /// Attach runtime execution counters (obs/pass_cost.h), plus the
  /// trimming-specific per-pass constants (trim_pass_extras).
  void set_metrics(MetricsRegistry* reg) {
    runner_.set_metrics(reg, trim_pass_extras(compiled_));
  }
  /// Cooperative stop between vectors (see KernelRunner::set_cancel).
  void set_cancel(const CancelToken* token) noexcept { runner_.set_cancel(token); }
  /// Step through machine code compiled from compiled().program (see
  /// KernelRunner::set_kernel).
  void set_kernel(PassKernel<Word> kernel) noexcept { runner_.set_kernel(kernel); }

 private:
  static ParallelCompiled make(const Netlist& nl, ParallelOptions options,
                               const CompileGuard& guard) {
    options.word_bits = static_cast<int>(sizeof(Word) * 8);
    return compile_parallel(nl, options, guard);
  }

  const Netlist& nl_;
  ParallelCompiled compiled_;
  KernelRunner<Word> runner_;
  std::vector<Bit> prev_final_;
  std::vector<Word> in_;
};

}  // namespace udsim
