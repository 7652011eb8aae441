// Engine-agnostic resilient batch execution over the Simulator facade.
//
// run_batch_resilient() is the one entry point that composes the whole
// resilience stack (DESIGN.md §5f): pre-flight ProgramValidator, cooperative
// cancellation, checkpoint/resume, deterministic fault injection and shard
// retry-with-quarantine. For a compiled engine (Native included: its shards
// run the dlopen'd pass kernel) it validates the engine's program, then
// drives BatchRunner::run_resilient; for the interpreted event engines (no
// compiled program, state not captured in a word arena) it replays the
// stream through a fresh engine, which honors cancellation but cannot
// produce a checkpoint — `resumable` is false and an early stop discards the
// partial rows. Simulator::run_batch is this function minus the validation.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>

#include "core/batch_runner.h"
#include "core/simulator.h"
#include "resilience/cancel.h"
#include "resilience/checkpoint.h"
#include "resilience/fault_injection.h"

namespace udsim {

/// Bounded retry-with-backoff schedule for *transient* failures (a native
/// toolchain hiccup, an injected shard fault that escaped quarantine, a
/// failed allocation). Complements the per-shard retry/quarantine machinery
/// in BatchRunner: that layer retries a shard from its seam within one run,
/// this one schedules whole-run re-attempts with growing pauses — the knob
/// the service layer (src/service/) turns.
struct RetryPolicy {
  unsigned max_retries = 1;  ///< re-attempts after the first try (0 = none)
  std::chrono::nanoseconds base_backoff{std::chrono::milliseconds(2)};
  double multiplier = 2.0;   ///< backoff growth per attempt
  std::chrono::nanoseconds max_backoff{std::chrono::milliseconds(250)};

  /// Pause before re-attempt `retry` (1-based): base × multiplier^(retry-1),
  /// clamped to max_backoff.
  [[nodiscard]] std::chrono::nanoseconds backoff_for(unsigned retry) const noexcept;
};

/// Sleep `d`, waking early when `cancel` stops (polled in small slices so a
/// deadline or cancel request never waits out a full backoff). Returns the
/// reason the sleep ended early, or StopReason::None after a full sleep.
StopReason backoff_sleep(std::chrono::nanoseconds d, const CancelToken* cancel);

/// Whether retrying a failed run can plausibly change the outcome — the
/// explicit classification RetryPolicy consumers key on (DESIGN.md §5k).
/// Deterministic failures (a compiler rejecting the emitted C, a program
/// failing validation, a geometry-mismatched resume) reproduce on every
/// attempt, so burning whole-run retries — and their backoff sleeps — on
/// them only delays the inevitable Failed.
enum class FaultClass : std::uint8_t {
  Transient,      ///< injected fault, allocation failure, toolchain timeout
  Deterministic,  ///< same inputs → same failure; retrying cannot help
};

[[nodiscard]] std::string_view fault_class_name(FaultClass c) noexcept;

/// Classify by dynamic exception type: InjectedFault, std::bad_alloc and a
/// timed-out NativeError (the compile-timeout kill) are Transient; every
/// other NativeError (the compiler's verdict is a function of the emitted
/// source), ProgramRejected, and anything unrecognized are Deterministic.
[[nodiscard]] FaultClass classify_fault(const std::exception& e) noexcept;

struct ResilientOptions {
  unsigned num_threads = 0;  ///< worker threads; 0 = all hardware threads
  const CancelToken* cancel = nullptr;
  FaultInjector* inject = nullptr;  ///< tests/bench only
  unsigned retry_limit = 2;         ///< shard retries before quarantine
  MetricsRegistry* metrics = nullptr;
  Diagnostics* diag = nullptr;
  /// Continue a previous early-stopped run; must match this run's geometry
  /// (program, vector count, thread count) or CheckpointError(Geometry).
  const BatchCheckpoint* resume = nullptr;
  /// Run ProgramValidator before the first pass; a rejected program throws
  /// ProgramRejected instead of executing.
  bool validate = true;
};

struct ResilientResult {
  RunStatus status = RunStatus::Complete;
  BatchResult batch;  ///< rows beyond `vectors_done` are zero when stopped
  BatchCheckpoint checkpoint;      ///< populated when stopped and resumable
  bool resumable = false;          ///< compiled engines only
  std::uint64_t vectors_done = 0;
  std::uint64_t retries = 0;
  std::uint64_t quarantined = 0;
};

/// Batch-run `vectors` (row-major, one Bit per primary input per row)
/// through `sim` with the full resilience stack. Always replays from the
/// engine's reset state (plus `resume`, when given), like
/// Simulator::run_batch.
[[nodiscard]] ResilientResult run_batch_resilient(const Simulator& sim,
                                                  std::span<const Bit> vectors,
                                                  const ResilientOptions& opts = {});

}  // namespace udsim
