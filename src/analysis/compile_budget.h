// Compile-time resource budgets for the guarded compilation pipeline.
//
// The paper's techniques have compile costs that are *structural* functions
// of the netlist: the parallel technique allocates a (depth+1)-bit field per
// net, the PC-set method one variable per (net, PC-time) pair. Deep or
// heavily reconvergent circuits can therefore blow up arena size and code
// size with no warning. The cost model is the analysis a compiler runs
// before it emits (analyse_parallel / analyse_pcset) plus a count over it
// (parallel_cost / pcset_cost): arena words, op count and peak bytes before
// any Program is materialized. A guarded compile analyses once, enforces
// the count against its `CompileBudget`, emits from the same analysis and
// checks the emitted program (`BudgetExceeded` either way);
// `estimate_compile_cost` runs the same analysis and count standalone. The
// engine fallback chain (core/simulator.h, make_simulator_with_fallback)
// catches BudgetExceeded to degrade gracefully instead of OOM-ing.
#pragma once

#include <cstddef>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/trimming.h"
#include "core/engine_kind.h"
#include "netlist/diagnostics.h"
#include "netlist/netlist.h"
#include "resilience/cancel.h"

namespace udsim {

/// Hard compile-resource limits. A limit of 0 means unlimited.
struct CompileBudget {
  std::size_t max_arena_words = 0;  ///< word-arena size of the compiled program
  std::size_t max_ops = 0;          ///< straight-line op count (code size)
  std::size_t max_peak_bytes = 0;   ///< resident bytes (CompileCostEstimate::peak_bytes)

  [[nodiscard]] bool unlimited() const noexcept {
    return max_arena_words == 0 && max_ops == 0 && max_peak_bytes == 0;
  }
};

/// Predicted (or measured) compile cost of one engine over one netlist.
struct CompileCostEstimate {
  EngineKind kind = EngineKind::ZeroDelayLcc;
  std::size_t arena_words = 0;
  std::size_t ops = 0;
  /// Bytes the compiled engine allocates: ops, arena_init, one arena at the
  /// lane width, and its compiled type's side tables (peak_bytes_for).
  std::size_t peak_bytes = 0;
};

/// The budget limit `cost` crosses first ("arena words" / "ops" /
/// "peak bytes"), or nullptr when the cost fits.
[[nodiscard]] const char* budget_violation(const CompileBudget& budget,
                                           const CompileCostEstimate& cost) noexcept;

/// Structured error thrown by compile_parallel / compile_pcset / compile_lcc
/// when a prediction or the actual emission crosses a CompileBudget limit.
class BudgetExceeded : public std::runtime_error {
 public:
  BudgetExceeded(const CompileCostEstimate& cost, const CompileBudget& budget,
                 const char* limit, bool predicted);

  [[nodiscard]] EngineKind kind() const noexcept { return cost_.kind; }
  [[nodiscard]] const CompileCostEstimate& cost() const noexcept { return cost_; }
  [[nodiscard]] const CompileBudget& budget() const noexcept { return budget_; }
  /// Which limit was crossed: "arena words", "ops" or "peak bytes".
  [[nodiscard]] const std::string& limit() const noexcept { return limit_; }
  /// True when the pre-emission prediction tripped; false when the emitted
  /// program itself crossed the limit.
  [[nodiscard]] bool predicted() const noexcept { return predicted_; }

 private:
  CompileCostEstimate cost_;
  CompileBudget budget_;
  std::string limit_;
  bool predicted_;
};

/// Predict the compile cost of `kind` over `nl` from the analysis its
/// compiler runs (levelization, alignment, PC-sets) and the same count the
/// guarded compiler enforces; no Program is materialized. PC-set and LCC
/// predictions are exact; the parallel variants' track the emitted program
/// within a small factor (asserted to be within 2x on the ISCAS-85 profiles
/// by tests/compile_budget_test.cpp); the interpreted event engines have no
/// compiled program and report only their interpreter footprint in
/// peak_bytes. PC-set is predicted for the primary outputs as monitored set.
[[nodiscard]] CompileCostEstimate estimate_compile_cost(const Netlist& nl,
                                                        EngineKind kind,
                                                        int word_bits = 32);

struct Program;

/// The *actual* cost of an emitted program, in the same units as
/// estimate_compile_cost (used by the compilers for the post-emission
/// budget check).
[[nodiscard]] CompileCostEstimate measure_compile_cost(const Program& p,
                                                       EngineKind kind,
                                                       std::size_t net_count);

class MetricsRegistry;

/// Budget + optional diagnostics sink + optional metrics registry, the
/// defaulted last parameter of every compiler entry point (the default is
/// unlimited and untraced). With `metrics` set the compilers trace every
/// phase (compile.levelize / .pcset / .alignment / .trimming / .emit spans)
/// and record the emitted-program shape counters (DESIGN.md §5e) of every
/// program the budget accepts; engines built through the Simulator facade
/// adopt the same registry for their runtime counters.
struct CompileGuard {
  CompileBudget budget{};
  Diagnostics* diag = nullptr;
  MetricsRegistry* metrics = nullptr;
  /// Cooperative stop for long compilations: checked at phase boundaries
  /// (levelize / alignment / trimming / pcset / emit), never inside the
  /// per-net emission loops, so compilation cost is unchanged when unset.
  const CancelToken* cancel = nullptr;

  /// Throws BudgetExceeded when `cost` crosses a limit.
  void enforce(const CompileCostEstimate& cost, bool predicted) const;

  /// Throws BudgetExceeded when the emitted `p` crosses a limit; otherwise
  /// records its shape counters (compile.programs, .ops, .runs,
  /// .arena_words, .arena_init_words, .input_words) into `metrics`, so a
  /// program the budget rejects is never on the books.
  void accept(const Program& p, EngineKind kind, std::size_t net_count) const;

  /// Throws Cancelled when the attached token has stopped; phase boundaries
  /// only (see `cancel`).
  void check_cancel(const char* phase) const;
};

/// What a parallel-technique compile analyses before it emits: levels and
/// the topological gate order (path tracing walks it backwards, the emitter
/// forwards), the kind's alignment plan, field widths, and the trim plan
/// (word classes from the raw PC-sets when `trimming`, else all Computed).
/// Traced and cancellable at compile.levelize / .alignment / .trimming
/// (nested .pcset); throws NetlistError on an illegal alignment plan.
struct ParallelAnalysis {
  Levelization lv;
  std::vector<GateId> order;  ///< topological_gate_order(nl, lv)
  AlignmentPlan plan;
  std::vector<int> widths;
  TrimPlan trim;
};
[[nodiscard]] ParallelAnalysis analyse_parallel(const Netlist& nl, EngineKind kind,
                                                bool trimming, int word_bits,
                                                const CompileGuard& guard = {});

/// What a PC-set compile analyses before it emits: the topological gate
/// order (from the one levelization) and PC-sets with zeros
/// inserted for every gate and for the PRINT gate over `monitored`; when any
/// monitored net retains its previous value, every monitored net gets
/// element 0 (the PRINT gate fires at time 0). Traced and cancellable at
/// compile.levelize / compile.pcset.
struct PCSetAnalysis {
  std::vector<GateId> order;  ///< topological_gate_order(nl): the emission order
  PCSets pc;
};
[[nodiscard]] PCSetAnalysis analyse_pcset(const Netlist& nl,
                                          std::span<const NetId> monitored,
                                          const CompileGuard& guard = {});

/// The predicted cost counted over an analysis: what a guarded compile
/// enforces before emitting, and what estimate_compile_cost returns.
/// `kind` is a parallel variant or Native (its ParallelCombined base).
[[nodiscard]] CompileCostEstimate parallel_cost(const Netlist& nl, EngineKind kind,
                                                const ParallelAnalysis& a);
/// Exact for the program compile_pcset emits from `a`.
[[nodiscard]] CompileCostEstimate pcset_cost(const Netlist& nl, const PCSetAnalysis& a,
                                             int word_bits);

}  // namespace udsim
