// Static per-pass cost of a compiled Program, and the pre-resolved counter
// bundle the executor-adjacent layers bump once per vector pass.
//
// A straight-line program executes *every* op on *every* pass — that is the
// defining property of compiled simulation — so all dynamic execution
// counters are per-pass constants times the pass count. Computing the
// constants once (one scan of the op vector) keeps the hot loops free of
// per-op instrumentation while the counters stay exact, not sampled:
// `exec.ops` after N passes is provably N × |Program| (`exec.passes` counts
// them; `sim.vectors` counts input vectors, word_bits per pass when the
// batch layer packs lanes), and the metrics-invariant tests hold the runtime
// to exactly that.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ir/program.h"
#include "obs/metrics.h"

namespace udsim {

/// What one executor pass over a Program costs, by static count.
struct ProgramPassCost {
  std::uint64_t ops = 0;            ///< total ops (== program.ops.size())
  std::uint64_t words_written = 0;  ///< arena stores (every op writes dst)
  std::uint64_t words_read = 0;     ///< arena reads (dst for accumulate ops too)
  std::uint64_t shift_ops = 0;      ///< Shl/Shr/ShlOr/MaskShlOr/Funnel*
  std::uint64_t load_ops = 0;       ///< LoadBit/LoadBcast/LoadWord
  std::uint64_t gate_ops = 0;       ///< logic ops (Not..Xnor, Acc*, MaskedCopy)
};

/// One scan of the op vector; every op contributes to exactly one of the
/// shift/load/gate classes (Const/Copy/ExtractBit/BcastBit are data
/// movement and count only toward ops/words).
[[nodiscard]] ProgramPassCost program_pass_cost(const Program& p);

/// Cost of a single op (ops == 1). program_pass_cost is the sum of this
/// over the op vector — the profiler leans on that to attribute cost to
/// circuit structure with an exact, lossless decomposition.
[[nodiscard]] ProgramPassCost op_pass_cost(const Op& op);

inline ProgramPassCost& operator+=(ProgramPassCost& a,
                                   const ProgramPassCost& b) {
  a.ops += b.ops;
  a.words_written += b.words_written;
  a.words_read += b.words_read;
  a.shift_ops += b.shift_ops;
  a.load_ops += b.load_ops;
  a.gate_ops += b.gate_ops;
  return a;
}
inline bool operator==(const ProgramPassCost& a, const ProgramPassCost& b) {
  return a.ops == b.ops && a.words_written == b.words_written &&
         a.words_read == b.words_read && a.shift_ops == b.shift_ops &&
         a.load_ops == b.load_ops && a.gate_ops == b.gate_ops;
}

/// Engine-specific per-pass constants as (counter name, amount per pass).
using PassExtras = std::vector<std::pair<std::string, std::uint64_t>>;

/// Pre-resolved handles for the per-pass execution counters, plus optional
/// engine-specific extras (per-pass constants the Program alone cannot
/// supply, e.g. trimming's suppressed stores). Null-registry attach yields
/// a disengaged bundle whose on_passes() is a single branch.
struct ExecCounters {
  MetricCounter* vectors = nullptr;  ///< null = disengaged (no registry)
  MetricCounter* passes = nullptr;
  MetricCounter* ops = nullptr;
  MetricCounter* words_written = nullptr;
  MetricCounter* words_read = nullptr;
  MetricCounter* shift_ops = nullptr;
  MetricCounter* load_ops = nullptr;
  MetricCounter* gate_ops = nullptr;
  std::vector<std::pair<MetricCounter*, std::uint64_t>> extras;
  ProgramPassCost cost;

  [[nodiscard]] static ExecCounters attach(MetricsRegistry* reg,
                                           const Program& program,
                                           const PassExtras& extra_per_pass = {});

  [[nodiscard]] bool engaged() const noexcept { return vectors != nullptr; }

  /// Record `n` completed executor passes that settled `settled` input
  /// vectors (relaxed atomic adds). The two differ only for lane-packed
  /// batches (word_bits vectors per pass); every per-pass constant scales
  /// with the pass count.
  void on_passes(std::uint64_t n, std::uint64_t settled) const noexcept {
    if (!vectors || n == 0) return;
    vectors->add(settled);
    passes->add(n);
    ops->add(cost.ops * n);
    words_written->add(cost.words_written * n);
    words_read->add(cost.words_read * n);
    shift_ops->add(cost.shift_ops * n);
    load_ops->add(cost.load_ops * n);
    gate_ops->add(cost.gate_ops * n);
    for (const auto& [counter, per_pass] : extras) counter->add(per_pass * n);
  }
  /// One vector per pass: the step()-driven and scalar-batch case.
  void on_passes(std::uint64_t n) const noexcept { on_passes(n, n); }
};

}  // namespace udsim
