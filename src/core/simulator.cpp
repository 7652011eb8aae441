#include "core/simulator.h"

#include <stdexcept>

#include "core/width_dispatch.h"
#include "ir/wide_word.h"
#include "eventsim/event_sim.h"
#include "resilience/circuit_breaker.h"
#include "resilience/program_validator.h"
#include "resilience/resilient_run.h"
#include "lcc/lcc.h"
#include "parsim/parallel_sim.h"
#include "pcsim/pcset_sim.h"

namespace udsim {

std::size_t batch_vector_count(const Netlist& nl, std::span<const Bit> vectors) {
  const std::size_t pis = nl.primary_inputs().size();
  if (pis == 0) {
    if (!vectors.empty()) {
      throw std::invalid_argument("vector stream of " +
                                  std::to_string(vectors.size()) +
                                  " bits given but the netlist has no primary inputs");
    }
    return 0;
  }
  if (vectors.size() % pis != 0) {
    throw std::invalid_argument(
        "vector stream size " + std::to_string(vectors.size()) +
        " is not a multiple of the primary-input count " + std::to_string(pis));
  }
  return vectors.size() / pis;
}

std::string_view engine_name(EngineKind k) noexcept {
  switch (k) {
    case EngineKind::Event2:
      return "event-driven 2-value";
    case EngineKind::Event3:
      return "event-driven 3-value";
    case EngineKind::PCSet:
      return "PC-set method";
    case EngineKind::Parallel:
      return "parallel technique";
    case EngineKind::ParallelTrimmed:
      return "parallel + trimming";
    case EngineKind::ParallelPathTracing:
      return "parallel + path tracing";
    case EngineKind::ParallelCycleBreaking:
      return "parallel + cycle breaking";
    case EngineKind::ParallelCombined:
      return "parallel + path tracing + trimming";
    case EngineKind::ZeroDelayLcc:
      return "zero-delay LCC";
    case EngineKind::Native:
      return "native (dlopen)";
  }
  return "?";
}

namespace {

// The compiled engines all expose the same two hooks — the program and the
// arena bit holding each net's settled value — which is everything the
// batch layer needs. The interpreted event engines expose neither.
const Program* batch_program(const EventSim2&) { return nullptr; }
const Program* batch_program(const EventSim3&) { return nullptr; }
template <class W>
const Program* batch_program(const PCSetSim<W>& e) { return &e.compiled().program; }
template <class W>
const Program* batch_program(const ParallelSim<W>& e) { return &e.compiled().program; }
template <class W>
const Program* batch_program(const LccSim<W>& e) { return &e.compiled().program; }

// Engine-specific per-pass constants for the batch layer's execution
// counters (only the parallel technique has trimming extras).
template <class Engine>
PassExtras batch_extras(const Engine&) { return {}; }
template <class W>
PassExtras batch_extras(const ParallelSim<W>& e) {
  return trim_pass_extras(e.compiled());
}

template <class Engine>
std::vector<ArenaProbe> batch_probes(const Engine& e, const Netlist& nl) {
  std::vector<ArenaProbe> probes;
  if constexpr (requires { e.final_arena_probe(NetId{}); }) {
    probes.reserve(nl.primary_outputs().size());
    for (NetId po : nl.primary_outputs()) probes.push_back(e.final_arena_probe(po));
  }
  return probes;
}

template <class Engine>
class EngineAdapter final : public Simulator {
 public:
  template <class... Args>
  EngineAdapter(EngineKind kind, const Netlist& nl, Args&&... args)
      : kind_(kind), nl_(nl), engine_(nl, std::forward<Args>(args)...) {}

  void step(std::span<const Bit> pi_values) override { engine_.step(pi_values); }
  [[nodiscard]] EngineKind kind() const noexcept override { return kind_; }
  [[nodiscard]] const Netlist& netlist() const noexcept override { return nl_; }

  void set_metrics(MetricsRegistry* reg) noexcept override {
    metrics_ = reg;
    engine_.set_metrics(reg);
  }
  [[nodiscard]] MetricsRegistry* metrics() const noexcept override {
    return metrics_;
  }
  [[nodiscard]] Bit final_value(NetId n) const override {
    return value_of(engine_, n);
  }

  [[nodiscard]] const Program* compiled_program() const noexcept override {
    return batch_program(engine_);
  }
  [[nodiscard]] std::vector<ArenaProbe> output_probes() const override {
    return batch_probes(engine_, nl_);
  }
  [[nodiscard]] PassExtras pass_extras() const override {
    return batch_extras(engine_);
  }
  [[nodiscard]] const NativeModule* native_module() const noexcept override {
    return native_.get();
  }
  /// EngineKind::Native: take ownership of `module` — built from this
  /// engine's program — and step through its `kernel`; batches reach it
  /// through native_module().
  template <class Word>
  void attach_native(std::unique_ptr<NativeModule> module,
                     PassKernel<Word> kernel) {
    native_ = std::move(module);
    engine_.set_kernel(kernel);
  }
  [[nodiscard]] ProgramProfile program_profile(std::size_t top_k) const override {
    if constexpr (requires { attribution_for(engine_.compiled(), nl_); }) {
      return profile_program(engine_.compiled().program,
                             attribution_for(engine_.compiled(), nl_), top_k);
    } else {
      return {};  // interpreted event engines: no compiled program
    }
  }
  void set_cancel(const CancelToken* token) noexcept override {
    cancel_ = token;
    if constexpr (requires { engine_.set_cancel(token); }) {
      engine_.set_cancel(token);
    }
  }

  [[nodiscard]] const CancelToken* cancel() const noexcept override {
    return cancel_;
  }

 private:
  static Bit value_of(const EventSim2& e, NetId n) { return e.value(n); }
  static Bit value_of(const EventSim3& e, NetId n) {
    return e.value(n) == Tri::One ? 1 : 0;
  }
  template <class W>
  static Bit value_of(const PCSetSim<W>& e, NetId n) { return e.final_value(n); }
  template <class W>
  static Bit value_of(const ParallelSim<W>& e, NetId n) { return e.final_value(n); }
  template <class W>
  static Bit value_of(const LccSim<W>& e, NetId n) { return e.value(n); }

  EngineKind kind_;
  const Netlist& nl_;
  std::unique_ptr<NativeModule> native_;  ///< outlives engine_'s kernel
  Engine engine_;
  MetricsRegistry* metrics_ = nullptr;
  const CancelToken* cancel_ = nullptr;
};

ParallelOptions parallel_options(EngineKind kind) {
  ParallelOptions o;
  switch (kind) {
    case EngineKind::ParallelTrimmed:
      o.trimming = true;
      break;
    case EngineKind::ParallelPathTracing:
      o.shift_elim = ShiftElim::PathTracing;
      break;
    case EngineKind::ParallelCycleBreaking:
      o.shift_elim = ShiftElim::CycleBreaking;
      break;
    case EngineKind::Native:  // the paper's best combination, as machine code
      o.rename_scratch = false;  // near emission order suits the C compiler
      [[fallthrough]];
    case EngineKind::ParallelCombined:
      o.trimming = true;
      o.shift_elim = ShiftElim::PathTracing;
      break;
    default:
      break;
  }
  return o;
}

/// Compiled-IR engines instantiated at one executor lane width. The engine
/// templates derive their compiler's word_bits from the Word type, so one
/// instantiation per supported width covers the whole ladder.
template <class Word>
std::unique_ptr<Simulator> make_ir_adapter(const Netlist& nl, EngineKind kind,
                                           const CompileGuard& guard) {
  switch (kind) {
    case EngineKind::PCSet:
      return std::make_unique<EngineAdapter<PCSetSim<Word>>>(
          kind, nl, std::span<const NetId>{}, guard);
    case EngineKind::ZeroDelayLcc:
      return std::make_unique<EngineAdapter<LccSim<Word>>>(kind, nl, guard);
    case EngineKind::Parallel:
    case EngineKind::ParallelTrimmed:
    case EngineKind::ParallelPathTracing:
    case EngineKind::ParallelCycleBreaking:
    case EngineKind::ParallelCombined:
      return std::make_unique<EngineAdapter<ParallelSim<Word>>>(
          kind, nl, parallel_options(kind), guard);
    default:
      throw NetlistError("make_simulator: unknown engine kind");
  }
}

/// EngineKind::Native: the ParallelCombined engine at `Word`, its passes
/// run by the module compiled from its program (DESIGN.md §5h). Throws
/// NativeError when any pipeline stage fails, and BudgetExceeded naming
/// Native when the base program misses the budget, before any C is emitted.
template <class Word>
std::unique_ptr<Simulator> make_native(const Netlist& nl, const CompileGuard& guard,
                                       const NativeOptions& opts) {
  using Adapter = EngineAdapter<ParallelSim<Word>>;
  std::unique_ptr<Adapter> sim;
  try {
    sim = std::make_unique<Adapter>(EngineKind::Native, nl,
                                    parallel_options(EngineKind::Native), guard);
  } catch (const BudgetExceeded& e) {
    CompileCostEstimate cost = e.cost();
    cost.kind = EngineKind::Native;
    throw BudgetExceeded(cost, e.budget(), e.limit().c_str(), e.predicted());
  }
  std::unique_ptr<NativeModule> module = std::make_unique<NativeModule>(
      *sim->compiled_program(), "parallel-combined", opts, guard.metrics);
  const PassKernel<Word> kernel = module->kernel<Word>();
  sim->attach_native(std::move(module), kernel);
  return sim;
}

std::unique_ptr<Simulator> make_simulator_impl(const Netlist& nl, EngineKind kind,
                                               const CompileGuard& guard,
                                               const NativeOptions& native,
                                               int word_bits) {
  std::unique_ptr<Simulator> sim = [&]() -> std::unique_ptr<Simulator> {
    switch (kind) {
      // The interpreted event engines have no word arena; width is moot.
      case EngineKind::Event2:
        return std::make_unique<EngineAdapter<EventSim2>>(kind, nl);
      case EngineKind::Event3:
        return std::make_unique<EngineAdapter<EventSim3>>(kind, nl);
      case EngineKind::Native:
        if (word_bits > 64) {
          // Portable C has no 128/256-bit word; the fallback chain skips
          // Native at wide widths, so reaching here is a direct request.
          throw std::invalid_argument(
              "make_simulator: the native backend supports 32/64-bit words "
              "only (requested " + std::to_string(word_bits) + ")");
        }
        if (word_bits == 64) return make_native<std::uint64_t>(nl, guard, native);
        return make_native<std::uint32_t>(nl, guard, native);
      default:
        switch (word_bits) {
          case 64:
            return make_ir_adapter<std::uint64_t>(nl, kind, guard);
#if UDSIM_HAS_W128
          case 128:
            return make_ir_adapter<u128>(nl, kind, guard);
#endif
          case 256:
            return make_ir_adapter<u256>(nl, kind, guard);
          default:
            return make_ir_adapter<std::uint32_t>(nl, kind, guard);
        }
    }
  }();
  // The registry that traced the compile also receives the runtime
  // counters, so one object tells the whole story of an engine's life;
  // likewise the token that could stop the compile keeps polling at runtime.
  sim->set_metrics(guard.metrics);
  sim->set_cancel(guard.cancel);
  return sim;
}

[[nodiscard]] std::string cost_summary(const CompileCostEstimate& c) {
  return std::to_string(c.arena_words) + " arena words, " +
         std::to_string(c.ops) + " ops, ~" + std::to_string(c.peak_bytes) +
         " peak bytes";
}

/// RAII verdict reporter for one native build attempt against the toolchain
/// circuit breaker: exactly one of success/failure is recorded, or — when
/// the attempt unwinds without a toolchain verdict (budget miss before the
/// compiler ran, a cancel propagating through) — record_abandoned() runs,
/// so a granted half-open probe slot can never leak.
class BreakerAttempt {
 public:
  explicit BreakerAttempt(CircuitBreaker* b) noexcept : b_(b) {}
  ~BreakerAttempt() {
    if (b_ != nullptr) b_->record_abandoned();
  }
  BreakerAttempt(const BreakerAttempt&) = delete;
  BreakerAttempt& operator=(const BreakerAttempt&) = delete;
  void success() { report(&CircuitBreaker::record_success); }
  void failure() { report(&CircuitBreaker::record_failure); }

 private:
  void report(void (CircuitBreaker::*fn)()) {
    if (b_ != nullptr) {
      CircuitBreaker* b = b_;
      b_ = nullptr;
      (b->*fn)();
    }
  }
  CircuitBreaker* b_;
};

}  // namespace

BatchResult Simulator::run_batch(std::span<const Bit> vectors,
                                 const BatchRunOptions& opts) const {
  // Per-run overrides beat the instance-wide attachments (see
  // BatchRunOptions): a shared cached engine stays immutable while each
  // request brings its own token and registry.
  ResilientResult r = run_batch_resilient(
      *this, vectors,
      ResilientOptions{.num_threads = opts.num_threads,
                       .cancel = opts.cancel ? opts.cancel : cancel(),
                       .metrics = opts.metrics ? opts.metrics : metrics(),
                       .validate = false});
  if (r.status != RunStatus::Complete) {
    throw Cancelled(r.status == RunStatus::Cancelled ? StopReason::Cancelled
                                                     : StopReason::Deadline,
                    "batch.run", r.vectors_done);
  }
  return std::move(r.batch);
}

std::unique_ptr<Simulator> make_simulator(const Netlist& nl, EngineKind kind,
                                          const CompileGuard& guard,
                                          int word_bits) {
  const WidthChoice w = dispatch_width(engine_width_request(kind, word_bits),
                                      guard.diag, guard.metrics);
  return make_simulator_impl(nl, kind, guard, NativeOptions{}, w.word_bits);
}

std::unique_ptr<Simulator> make_simulator_with_fallback(const Netlist& nl,
                                                        const SimPolicy& policy,
                                                        Diagnostics* diag) {
  if (policy.chain.empty()) {
    throw NetlistError("make_simulator_with_fallback: empty engine chain");
  }
  const CompileGuard guard{policy.budget, diag, policy.metrics, policy.cancel};
  // One dispatch for the whole chain: every candidate engine compiles at the
  // same resolved lane width, so a downgrade never changes the results and
  // the budget compares candidates at one width. An unset width is therefore
  // not widened per engine here (engine_width_request): it stays 32 bits.
  const WidthChoice width = dispatch_width(policy.word_bits, diag, policy.metrics);
  std::size_t downgrades = 0;
  std::size_t native_fallbacks = 0;
  for (std::size_t i = 0; i < policy.chain.size(); ++i) {
    const EngineKind kind = policy.chain[i];
    // Positional, not by value: a chain may list the same kind twice (e.g. a
    // user chain that already starts with Native plus a service-prepended
    // Native), and only the true tail position is terminal.
    const bool last = i + 1 == policy.chain.size();
    // The native backend emits portable C, which has no 128/256-bit word
    // type: at wide lane widths the chain skips it (recorded like any other
    // native fallback) rather than silently compiling at a narrower width.
    if (kind == EngineKind::Native && width.word_bits > 64) {
      if (diag) {
        diag->report(DiagCode::NativeFallback, DiagSeverity::Warning,
                     std::string(engine_name(kind)),
                     "native backend supports 32/64-bit words only; skipped at " +
                         std::to_string(width.word_bits) +
                         "-bit lanes; trying next engine");
      }
      metric_add(policy.metrics, "native.fallback", 1);
      ++native_fallbacks;
      if (last) {
        throw NetlistError(
            "make_simulator_with_fallback: only the native engine remains and "
            "it cannot run " + std::to_string(width.word_bits) + "-bit lanes");
      }
      continue;
    }
    // Circuit-breaker gate (DESIGN.md §5k): when the toolchain has been
    // failing consecutively, skip the native attempt *before* emitting C or
    // spawning a compiler subprocess — the whole point of the breaker is
    // that a persistently broken toolchain costs one counter bump per
    // request, not an emit+compile(+timeout) round trip per request.
    if (kind == EngineKind::Native && policy.native_breaker != nullptr &&
        !policy.native_breaker->allow()) {
      if (diag) {
        diag->report(DiagCode::NativeBreakerOpen, DiagSeverity::Warning,
                     std::string(engine_name(kind)),
                     "toolchain breaker '" +
                         policy.native_breaker->config().name + "' " +
                         policy.native_breaker->describe() +
                         "; skipping native untried");
      }
      metric_add(policy.metrics, "native.breaker_skipped", 1);
      ++native_fallbacks;
      if (last) {
        throw NetlistError(
            "make_simulator_with_fallback: only the native engine remains "
            "and its toolchain breaker is open");
      }
      continue;
    }
    // A native attempt compiles its base program *before* the external
    // toolchain can fail, so on failure the registry would describe a
    // program that never runs; snapshot compile.* and roll it back in the
    // NativeError handler so `exec.ops == compile.ops × passes` survives
    // the IR fallback (tests/fallback_chain_test.cpp).
    std::map<std::string, std::uint64_t> compile_before;
    if (kind == EngineKind::Native && policy.metrics) {
      compile_before = policy.metrics->snapshot();
    }
    BreakerAttempt breaker_attempt(
        kind == EngineKind::Native ? policy.native_breaker : nullptr);
    try {
      std::unique_ptr<Simulator> sim =
          make_simulator_impl(nl, kind, guard, policy.native, width.word_bits);
      // The toolchain cooperated end to end (emit → compile → dlopen →
      // dlsym): tell the breaker, so a half-open probe re-closes it.
      breaker_attempt.success();
      // Pre-flight validation (DESIGN.md §5f): a compiled program must pass
      // the structural checks before it is allowed near an arena — and the
      // check re-runs after every downgrade, since each downgrade built a
      // *different* program.
      if (policy.validate) {
        if (const Program* program = sim->compiled_program()) {
          const std::vector<ArenaProbe> probes = sim->output_probes();
          Diagnostics local;
          Diagnostics& vdiag = diag ? *diag : local;
          if (!validate_program(*program, ValidateOptions{.probes = probes},
                                vdiag)) {
            ++downgrades;
            if (last) {
              throw ProgramRejected(validate_program_brief(
                  *program, ValidateOptions{.probes = probes}));
            }
            continue;
          }
        }
      }
      if (diag) {
        diag->report(DiagCode::EngineSelected, DiagSeverity::Note,
                     std::string(engine_name(kind)),
                     downgrades != 0
                         ? "selected after " + std::to_string(downgrades) +
                               " budget downgrade(s)"
                         : native_fallbacks != 0 ? "selected after native fallback"
                                                 : "selected (first choice)");
      }
      return sim;
    } catch (const NativeError& e) {
      // An environment failure (no compiler, bad cache dir, corrupt object,
      // missing symbol), not a resource miss: record the structured stage
      // and continue down the IR chain.
      breaker_attempt.failure();
      if (diag) {
        diag->report(DiagCode::NativeFallback, DiagSeverity::Warning,
                     std::string(engine_name(kind)),
                     std::string(native_stage_name(e.stage())) +
                         " stage failed (" + e.what() + "); trying next engine");
      }
      metric_add(policy.metrics, "native.fallback", 1);
      if (policy.metrics) {
        // Roll back compile.* to the pre-attempt values: the native.* audit
        // trail stays (the build really happened), but the compile counters
        // must describe the program the selected engine actually runs.
        for (const auto& [name, value] : policy.metrics->snapshot()) {
          if (name.rfind("compile.", 0) != 0) continue;
          const auto it = compile_before.find(name);
          policy.metrics->counter(name).set(
              it == compile_before.end() ? 0 : it->second);
        }
      }
      ++native_fallbacks;
      if (last) throw;
    } catch (const BudgetExceeded& e) {
      if (diag) {
        diag->report(DiagCode::BudgetDowngrade, DiagSeverity::Warning,
                     std::string(engine_name(kind)),
                     std::string(e.predicted() ? "predicted " : "emitted ") +
                         e.limit() + " over budget (" + cost_summary(e.cost()) +
                         "); trying next engine");
      }
      ++downgrades;
      if (last) throw;
    }
  }
  throw NetlistError("make_simulator_with_fallback: no engine fits the budget");
}

SimPolicy native_sim_policy(NativeOptions opts) {
  SimPolicy policy;
  policy.chain.insert(policy.chain.begin(), EngineKind::Native);
  policy.native = std::move(opts);
  return policy;
}

}  // namespace udsim
