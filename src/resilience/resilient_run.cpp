#include "resilience/resilient_run.h"

#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ir/program.h"
#include "native/native_backend.h"
#include "netlist/diagnostics.h"
#include "resilience/program_validator.h"

namespace udsim {

std::chrono::nanoseconds RetryPolicy::backoff_for(unsigned retry) const noexcept {
  if (retry == 0) return std::chrono::nanoseconds{0};
  double ns = static_cast<double>(base_backoff.count());
  for (unsigned i = 1; i < retry; ++i) ns *= multiplier;
  const double cap = static_cast<double>(max_backoff.count());
  if (ns > cap) ns = cap;
  return std::chrono::nanoseconds{static_cast<std::int64_t>(ns)};
}

std::string_view fault_class_name(FaultClass c) noexcept {
  switch (c) {
    case FaultClass::Transient:
      return "transient";
    case FaultClass::Deterministic:
      return "deterministic";
  }
  return "?";
}

FaultClass classify_fault(const std::exception& e) noexcept {
  if (dynamic_cast<const InjectedFault*>(&e) != nullptr) {
    return FaultClass::Transient;
  }
  if (dynamic_cast<const std::bad_alloc*>(&e) != nullptr) {
    return FaultClass::Transient;
  }
  if (const auto* ne = dynamic_cast<const NativeError*>(&e)) {
    // The one toolchain failure a retry can cure is the timeout kill (a
    // loaded machine, a cold NFS cache); a compiler *verdict* on the same
    // emitted source reproduces every time.
    return ne->timed_out() ? FaultClass::Transient : FaultClass::Deterministic;
  }
  // ProgramRejected, geometry-mismatched resumes, logic errors, and
  // anything unrecognized: same inputs, same failure.
  return FaultClass::Deterministic;
}

StopReason backoff_sleep(std::chrono::nanoseconds d, const CancelToken* cancel) {
  using clock = std::chrono::steady_clock;
  const auto until = clock::now() + d;
  constexpr auto kSlice = std::chrono::milliseconds(1);
  for (;;) {
    if (cancel != nullptr) {
      const StopReason r = cancel->stop_reason();
      if (r != StopReason::None) return r;
    }
    const auto now = clock::now();
    if (now >= until) return StopReason::None;
    const auto left = until - now;
    std::this_thread::sleep_for(left < kSlice ? left : kSlice);
  }
}

ResilientResult run_batch_resilient(const Simulator& sim,
                                    std::span<const Bit> vectors,
                                    const ResilientOptions& opts) {
  const Netlist& nl = sim.netlist();
  const std::size_t count = batch_vector_count(nl, vectors);
  ResilientResult r;
  r.batch.outputs = nl.primary_outputs();
  r.batch.vectors = count;

  const Program* program = sim.compiled_program();
  if (program == nullptr) {
    // Interpreted engine: a single-threaded replay on a fresh engine, so the
    // reset-state semantics and `sim`'s own state both hold. Only the
    // options' token and registry reach the replay, so a shared const engine
    // needs no set_cancel/set_metrics mutation (service layer contract).
    // Cancellation still works (the engine polls between vectors), but there
    // is no word arena to snapshot, so an early stop cannot checkpoint —
    // partial rows are discarded.
    const std::unique_ptr<Simulator> fresh = make_simulator(nl, sim.kind());
    fresh->set_metrics(opts.metrics);
    fresh->set_cancel(opts.cancel);
    const std::size_t pis = nl.primary_inputs().size();
    r.batch.values.reserve(count * r.batch.outputs.size());
    try {
      for (std::size_t v = 0; v < count; ++v) {
        fresh->step(vectors.subspan(v * pis, pis));
        for (NetId po : r.batch.outputs) r.batch.values.push_back(fresh->final_value(po));
      }
      r.vectors_done = count;
    } catch (const Cancelled& e) {
      r.status = e.reason() == StopReason::Deadline ? RunStatus::DeadlineExpired
                                                    : RunStatus::Cancelled;
      r.batch.values.clear();
      r.vectors_done = e.vector_index() > 0 ? e.vector_index() - 1 : 0;
      if (opts.diag) {
        opts.diag->report(DiagCode::RunCancelled, DiagSeverity::Note,
                          "run_batch_resilient",
                          std::string(stop_reason_name(e.reason())) +
                              " in interpreted engine; no checkpoint (not "
                              "resumable)");
      }
    }
    return r;
  }

  std::vector<ArenaProbe> probes = sim.output_probes();
  if (opts.validate) {
    const ValidateOptions vopts{.probes = probes};
    Diagnostics local;
    Diagnostics& vdiag = opts.diag ? *opts.diag : local;
    if (!validate_program(*program, vopts, vdiag)) {
      throw ProgramRejected(validate_program_brief(*program, vopts));
    }
  }

  const std::size_t pis = nl.primary_inputs().size();
  if (program->input_words != pis) {
    throw std::logic_error(
        "run_batch_resilient: program input words do not match the primary "
        "inputs");
  }
  // The one place a Simulator batch builds its BatchRunner: the native
  // engine's module rides along, so its shards run the dlopen'd kernel.
  BatchRunner runner(*program, std::move(probes),
                     BatchOptions{.num_threads = opts.num_threads,
                                  .metrics = opts.metrics,
                                  .extra_pass_cost = sim.pass_extras(),
                                  .cancel = opts.cancel,
                                  .inject = opts.inject,
                                  .retry_limit = opts.retry_limit,
                                  .diag = opts.diag,
                                  .native = sim.native_module()});
  ResilientBatch b = runner.run_resilient(vectors, count, opts.resume);
  r.status = b.status;
  r.batch.values = std::move(b.values);
  r.batch.threads = runner.num_threads();
  r.checkpoint = std::move(b.checkpoint);
  r.resumable = true;
  r.vectors_done = b.vectors_done;
  r.retries = b.retries;
  r.quarantined = b.quarantined;
  return r;
}

}  // namespace udsim
