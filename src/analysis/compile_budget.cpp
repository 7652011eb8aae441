#include "analysis/compile_budget.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "ir/program.h"
#include "ir/schedule.h"
#include "netlist/logic.h"
#include "obs/metrics.h"

namespace udsim {

const char* budget_violation(const CompileBudget& budget,
                             const CompileCostEstimate& cost) noexcept {
  if (budget.max_arena_words != 0 && cost.arena_words > budget.max_arena_words) {
    return "arena words";
  }
  if (budget.max_ops != 0 && cost.ops > budget.max_ops) {
    return "ops";
  }
  if (budget.max_peak_bytes != 0 && cost.peak_bytes > budget.max_peak_bytes) {
    return "peak bytes";
  }
  return nullptr;
}

namespace {

[[nodiscard]] std::string format_exceeded(const CompileCostEstimate& cost,
                                          const CompileBudget& budget,
                                          const char* limit, bool predicted) {
  std::string s(engine_name(cost.kind));
  s += predicted ? ": predicted " : ": emitted ";
  s += limit;
  s += " (";
  if (std::string_view(limit) == "arena words") {
    s += std::to_string(cost.arena_words) + " > " +
         std::to_string(budget.max_arena_words);
  } else if (std::string_view(limit) == "ops") {
    s += std::to_string(cost.ops) + " > " + std::to_string(budget.max_ops);
  } else {
    s += std::to_string(cost.peak_bytes) + " > " +
         std::to_string(budget.max_peak_bytes);
  }
  s += ") exceed the compile budget";
  return s;
}

/// Per-word op count of emit_gate_word (ir/emit_util.h) for one gate.
[[nodiscard]] std::size_t gate_word_ops(GateType t, std::size_t fanin) noexcept {
  if (is_constant(t)) return 0;  // arena-resident, no per-vector code
  if (is_unary(t) || fanin <= 2) return 1;
  const bool inverted =
      t == GateType::Nand || t == GateType::Nor || t == GateType::Xnor;
  return fanin - 1 + (inverted ? 1 : 0);
}

/// Bytes one compiled engine allocates: ops and arena_init at their exact
/// sizes, one word arena at the lane width, and its compiled type's side
/// tables — LCC's net_var and def_end; PC-set's net_vars (a vector per
/// net, a (time, word) pair per variable); for the parallel variants six
/// ints per net, three per gate (charged per net), and a trim-class
/// vector per net with one byte per field word.
[[nodiscard]] std::size_t peak_bytes_for(EngineKind kind, std::size_t arena_words,
                                         std::size_t ops, std::size_t init_words,
                                         int word_bits, std::size_t nets) noexcept {
  using NetVar = std::pair<int, std::uint32_t>;
  const std::size_t side =
      kind == EngineKind::ZeroDelayLcc ? nets * 2 * sizeof(std::uint32_t)
      : kind == EngineKind::PCSet
          ? nets * sizeof(std::vector<NetVar>) + arena_words * sizeof(NetVar)
          : nets * (9 * sizeof(int) + sizeof(std::vector<WordClass>)) +
                arena_words * sizeof(WordClass);
  return ops * sizeof(Op) + init_words * sizeof(Program::InitWord) +
         arena_words * static_cast<std::size_t>(word_bits / 8) + side;
}

[[nodiscard]] bool gate_driven_by_constant(const Netlist& nl, NetId n) {
  const Net& net = nl.net(n);
  return !net.drivers.empty() && is_constant(nl.gate(net.drivers.front()).type);
}

/// Sets peak_bytes, counting arena_init as one word per constant net.
[[nodiscard]] CompileCostEstimate with_peak_bytes(const Netlist& nl,
                                                  CompileCostEstimate c,
                                                  int word_bits) {
  const auto constants = static_cast<std::size_t>(std::count_if(
      nl.gates().begin(), nl.gates().end(), [](const Gate& g) { return is_constant(g.type); }));
  c.peak_bytes = peak_bytes_for(c.kind, c.arena_words, c.ops, constants, word_bits,
                                nl.net_count());
  return c;
}

// ---- zero-delay LCC --------------------------------------------------------
// One variable per net, one gate evaluation per gate: the formula is exact.
CompileCostEstimate lcc_cost(const Netlist& nl, int word_bits) {
  CompileCostEstimate c{.kind = EngineKind::ZeroDelayLcc,
                        .arena_words = nl.net_count(),
                        .ops = nl.primary_inputs().size()};
  for (const Gate& g : nl.gates()) c.ops += gate_word_ops(g.type, g.inputs.size());
  return with_peak_bytes(nl, c, word_bits);
}

/// The unoptimized technique's variants give every net a uniform field.
[[nodiscard]] bool uniform_fields(EngineKind kind) noexcept {
  return kind == EngineKind::Parallel || kind == EngineKind::ParallelTrimmed;
}

}  // namespace

// ---- PC-set method ---------------------------------------------------------

PCSetAnalysis analyse_pcset(const Netlist& nl, std::span<const NetId> monitored,
                            const CompileGuard& guard) {
  PCSetAnalysis a;
  const Levelization lv = [&] {
    guard.check_cancel("compile.levelize");
    TraceSpan span(guard.metrics, "compile.levelize");
    return levelize(nl, a.order);
  }();
  guard.check_cancel("compile.pcset");
  TraceSpan span(guard.metrics, "compile.pcset");
  PCSets& pc = a.pc;
  pc = compute_pc_sets(nl, lv);
  insert_zeros(nl, lv, monitored, pc);
  bool print_at_zero = false;
  for (NetId m : monitored) print_at_zero |= pc.net_pc[m.value].test(0);
  if (print_at_zero) {
    for (NetId m : monitored) pc.net_pc[m.value].set(0);
  }
  return a;
}

// One variable per (net, PC element); one gate simulation per non-zero
// element of each gate's PC-set, plus the X_0 = X_max retained-value copies.
// Mirrors the compile_pcset loops without emitting anything.
CompileCostEstimate pcset_cost(const Netlist& nl, const PCSetAnalysis& a,
                               int word_bits) {
  const PCSets& pc = a.pc;
  CompileCostEstimate c{.kind = EngineKind::PCSet, .arena_words = pc.total_net_pc_size(),
                        .ops = nl.primary_inputs().size()};
  for (std::uint32_t n = 0; n < nl.net_count(); ++n) {
    const NetId id{n};
    if (nl.net(id).is_primary_input || gate_driven_by_constant(nl, id)) continue;
    if (pc.net_pc[n].test(0) && pc.net_pc[n].count() > 1) ++c.ops;
  }
  for (std::uint32_t gi = 0; gi < nl.gate_count(); ++gi) {
    const Gate& g = nl.gate(GateId{gi});
    if (is_constant(g.type)) continue;
    std::size_t elements = pc.gate_pc[gi].count();
    if (pc.gate_pc[gi].test(0)) --elements;  // zero element: value retained
    c.ops += elements * gate_word_ops(g.type, g.inputs.size());
  }
  return with_peak_bytes(nl, c, word_bits);
}

// ---- parallel technique ----------------------------------------------------

ParallelAnalysis analyse_parallel(const Netlist& nl, EngineKind kind, bool trimming,
                                  int word_bits, const CompileGuard& guard) {
  MetricsRegistry* const reg = guard.metrics;
  ParallelAnalysis a;
  {
    guard.check_cancel("compile.levelize");
    TraceSpan span(reg, "compile.levelize");
    a.lv = levelize(nl, a.order);
  }
  {
    guard.check_cancel("compile.alignment");
    TraceSpan span(reg, "compile.alignment");
    if (uniform_fields(kind)) {
      a.plan = align_unoptimized(nl, a.lv);
    } else if (kind == EngineKind::ParallelCycleBreaking) {
      a.plan = align_cycle_breaking(nl, a.lv);
    } else {
      a.plan = align_path_tracing(nl, a.lv, a.order);
    }
    check_alignment_plan(nl, a.lv, a.plan);
  }
  guard.check_cancel("compile.trimming");
  TraceSpan span(reg, "compile.trimming");
  a.widths = field_widths(nl, a.lv, a.plan, uniform_fields(kind));
  if (trimming) {
    const PCSets pc = [&] {
      TraceSpan pc_span(reg, "compile.pcset");
      return compute_pc_sets(nl, a.lv);
    }();
    a.trim = compute_trim_plan(nl, a.lv, pc, a.plan, a.widths, word_bits);
  } else {
    a.trim = full_trim_plan(nl, a.widths, word_bits);
  }
  return a;
}

// Bit-field words from the alignment plan and trim classes; op count from
// per-gate computed-word counts, realignment sites and store shifts. This
// is a model, not a replay of the emitter — tests pin it within 2x of the
// emitted program on the ISCAS-85 profiles.
CompileCostEstimate parallel_cost(const Netlist& nl, EngineKind kind,
                                  const ParallelAnalysis& a) {
  const bool uniform = uniform_fields(kind);
  const Levelization& lv = a.lv;
  const AlignmentPlan& plan = a.plan;
  const std::vector<int>& widths = a.widths;
  const TrimPlan& trim = a.trim;
  const int W = trim.word_bits;

  CompileCostEstimate c{.kind = kind};
  // Fields.
  std::vector<std::uint32_t> net_words(nl.net_count());
  for (std::uint32_t n = 0; n < nl.net_count(); ++n) {
    net_words[n] = static_cast<std::uint32_t>((widths[n] + W - 1) / W);
    c.arena_words += net_words[n];
  }

  // Primary-input loads.
  for (NetId pi : nl.primary_inputs()) {
    const std::uint32_t words = net_words[pi.value];
    c.ops += plan.net_align[pi.value] == 0 ? words : words + 2;
  }

  // Stable-low / gap word fills, plus the broadcast feeding each stable run.
  c.ops += trim.stable_words + trim.gap_words;
  for (std::uint32_t n = 0; n < nl.net_count(); ++n) {
    for (WordClass w : trim.net_words[n]) {
      if (w == WordClass::StableLow) {
        ++c.ops;  // one BcastBit per net with stable words (counted once)
        break;
      }
    }
  }

  // Per-gate evaluation, realignment and store ops; scratch high-water.
  std::size_t scratch = 2;  // PI loads use two scratch words
  std::vector<std::uint32_t> seen;
  for (std::uint32_t gi = 0; gi < nl.gate_count(); ++gi) {
    const Gate& g = nl.gate(GateId{gi});
    if (is_constant(g.type)) continue;
    const std::uint32_t n = g.output.value;
    std::size_t cw = 0;
    for (WordClass w : trim.net_words[n]) {
      if (w == WordClass::Computed) ++cw;
    }
    const int s_out = plan.output_shift(nl, GateId{gi});
    const int res_bits = uniform
                             ? widths[n]
                             : lv.gate_level[gi] - plan.gate_align[gi] + 1;
    const auto res_words = static_cast<std::size_t>((res_bits + W - 1) / W);
    std::size_t pins_with_shift = 0;
    std::size_t distinct = 0;
    seen.clear();
    for (NetId in : g.inputs) {
      if (std::find(seen.begin(), seen.end(), in.value) == seen.end()) {
        seen.push_back(in.value);
        ++distinct;
      }
      if (plan.input_shift(nl, GateId{gi}, in) != 0) ++pins_with_shift;
    }
    const std::size_t needed = std::min(cw + (s_out != 0 ? 1 : 0), res_words);
    c.ops += needed * (gate_word_ops(g.type, g.inputs.size()) + pins_with_shift);
    if (s_out != 0) c.ops += cw + 2;  // store funnels + pf/msb broadcasts
    ++c.ops;  // init / boundary-broadcast slack per gate
    scratch = std::max(scratch, res_words + 2 + 3 * distinct);
  }
  c.arena_words += scratch;
  return with_peak_bytes(nl, c, W);
}

BudgetExceeded::BudgetExceeded(const CompileCostEstimate& cost,
                               const CompileBudget& budget, const char* limit,
                               bool predicted)
    : std::runtime_error(format_exceeded(cost, budget, limit, predicted)),
      cost_(cost),
      budget_(budget),
      limit_(limit),
      predicted_(predicted) {}

CompileCostEstimate measure_compile_cost(const Program& p, EngineKind kind,
                                         std::size_t net_count) {
  return {kind, p.arena_words, p.ops.size(),
          peak_bytes_for(kind, p.arena_words, p.ops.size(), p.arena_init.size(),
                         p.word_bits, net_count)};
}

CompileCostEstimate estimate_compile_cost(const Netlist& nl, EngineKind kind,
                                          int word_bits) {
  switch (kind) {
    case EngineKind::Event2:
    case EngineKind::Event3:
      // No compiled program: only the interpreter's per-net/per-gate
      // bookkeeping appears as footprint.
      return {kind, 0, 0, (nl.net_count() + nl.gate_count()) * 64};
    case EngineKind::ZeroDelayLcc:
      return lcc_cost(nl, word_bits);
    case EngineKind::PCSet:
      return pcset_cost(nl, analyse_pcset(nl, nl.primary_outputs()), word_bits);
    case EngineKind::Parallel:
    case EngineKind::ParallelTrimmed:
    case EngineKind::ParallelPathTracing:
    case EngineKind::ParallelCycleBreaking:
    case EngineKind::ParallelCombined:
    case EngineKind::Native: {
      // Native's arena/code cost is its ParallelCombined base program; the
      // external compiler's memory is not modelled.
      const bool trimming = kind == EngineKind::ParallelTrimmed ||
                            kind == EngineKind::ParallelCombined ||
                            kind == EngineKind::Native;
      return parallel_cost(nl, kind, analyse_parallel(nl, kind, trimming, word_bits));
    }
  }
  return {kind, 0, 0, 0};
}

void CompileGuard::enforce(const CompileCostEstimate& cost, bool predicted) const {
  if (const char* limit = budget_violation(budget, cost)) {
    throw BudgetExceeded(cost, budget, limit, predicted);
  }
}

void CompileGuard::accept(const Program& p, EngineKind kind,
                          std::size_t net_count) const {
  enforce(measure_compile_cost(p, kind, net_count), /*predicted=*/false);
  if (metrics == nullptr) return;
  metrics->counter("compile.programs").add(1);
  metrics->counter("compile.ops").add(p.ops.size());
  metrics->counter("compile.runs").add(opcode_runs(p));
  metrics->counter("compile.arena_words").add(p.arena_words);
  metrics->counter("compile.arena_init_words").add(p.arena_init.size());
  metrics->counter("compile.input_words").add(p.input_words);
}

void CompileGuard::check_cancel(const char* phase) const {
  if (cancel == nullptr) return;
  const StopReason r = cancel->stop_reason();
  if (r != StopReason::None) throw Cancelled(r, phase, 0);
}

}  // namespace udsim
