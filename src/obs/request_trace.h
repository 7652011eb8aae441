// Request-scoped tracing (DESIGN.md §5l).
//
// The PR 5 trace layer answers "where did this *session* spend its time";
// this layer answers the serving question: "where did *this request* spend
// its time". Every SimService::submit() mints a RequestTraceId, and a
// RequestTrace accumulates the request's typed lifecycle phases — admission,
// queue wait, cache disposition (hit / single-flight wait / build), the
// shed-ladder decision, every run attempt, resolution — each with a
// steady-clock start and duration. flush_to() converts the finished trace
// into TraceEvents on a per-request Perfetto lane, so one export shows both
// the thread view (which worker did what) and the request view (what one
// request's life looked like), cross-linked by the "request" arg.
//
// The propagation mechanism is a thread-local scope: RequestTraceScope pins
// the current request's id to the thread, and every TraceSpan constructed
// while the scope is active (compile phases inside the program-cache build,
// batch.run, native.compile) tags itself with a "request" arg
// automatically. Batch shards run on pool threads, so BatchRunner reads the
// id on the calling thread and re-enters the scope per shard. The scope is
// the only carrier: no options struct holds a trace id.
//
// Thread model: a RequestTrace is written by one thread at a time (the
// submitting thread until the request is queued, then exactly one service
// worker — the queue hand-off provides the happens-before edge). It is not
// internally synchronized.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace udsim {

/// Opaque per-request trace identifier; 0 = "no trace". Unique within a
/// process (minted from one atomic counter, seeded so two services in one
/// process never collide).
using RequestTraceId = std::uint64_t;

/// Mint the next process-unique trace id (never returns 0).
[[nodiscard]] RequestTraceId mint_request_trace_id() noexcept;

/// Steady-clock ns since an arbitrary process epoch — the same clock
/// TraceSpan stamps, so request-phase events and thread spans share one
/// timeline in the Perfetto export.
[[nodiscard]] std::uint64_t trace_now_ns() noexcept;

/// The typed lifecycle phases of one service request, in the order they can
/// occur. A request records a subset: a refusal records only Admission; a
/// cache hit records no CacheBuild; retries repeat RunAttempt/Backoff.
enum class RequestPhase : std::uint8_t {
  Admission,   ///< submit(): shape/quarantine/budget checks
  QueueWait,   ///< bounded-queue residency until a worker picked it up
  ShedDecide,  ///< load-shed ladder decision (arg = level)
  CacheHit,    ///< compiled program served from the cache immediately
  CacheWait,   ///< single-flight: waited for another request's build
  CacheBuild,  ///< this request compiled the program (chain walk inside)
  RunAttempt,  ///< one whole-run batch attempt (arg = attempt number)
  Backoff,     ///< retry backoff sleep between attempts
  Resolve,     ///< outcome sealed, future fulfilled
};

[[nodiscard]] std::string_view request_phase_name(RequestPhase p) noexcept;

/// RAII thread-local scope: while alive, current_request_trace_id() returns
/// `id` on this thread and every TraceSpan constructed here tags itself
/// with a "request" arg. Nesting restores the previous id; id 0 is inert
/// (the scope neither sets nor clears anything).
class RequestTraceScope {
 public:
  explicit RequestTraceScope(RequestTraceId id) noexcept;
  ~RequestTraceScope();
  RequestTraceScope(const RequestTraceScope&) = delete;
  RequestTraceScope& operator=(const RequestTraceScope&) = delete;

 private:
  RequestTraceId previous_ = 0;
  bool engaged_ = false;
};

/// The id pinned by the innermost live RequestTraceScope on this thread,
/// or 0 when none is active.
[[nodiscard]] RequestTraceId current_request_trace_id() noexcept;

/// One request's recorded lifecycle. Records are appended in completion
/// order; phase_totals() sums durations per phase for the event-log line.
class RequestTrace {
 public:
  struct Record {
    RequestPhase phase = RequestPhase::Admission;
    std::uint64_t start_ns = 0;  ///< trace_now_ns timebase
    std::uint64_t dur_ns = 0;
    std::uint64_t arg = 0;  ///< phase-specific (shed level, attempt number)
  };

  RequestTrace() = default;
  explicit RequestTrace(RequestTraceId id) noexcept : id_(id) {}

  [[nodiscard]] RequestTraceId id() const noexcept { return id_; }

  /// No-op on a default-constructed (id 0) trace, so disabled telemetry
  /// costs one branch per phase and never allocates.
  void record(RequestPhase phase, std::uint64_t start_ns, std::uint64_t dur_ns,
              std::uint64_t arg = 0) {
    if (id_ == 0) return;
    records_.push_back({phase, start_ns, dur_ns, arg});
  }

  [[nodiscard]] const std::vector<Record>& records() const noexcept {
    return records_;
  }

  /// Summed ns per phase, indexed by the RequestPhase value.
  using PhaseTotals =
      std::array<std::uint64_t,
                 static_cast<std::size_t>(RequestPhase::Resolve) + 1>;

  /// Summed duration of every record, per phase (a retried request has
  /// several RunAttempt records).
  [[nodiscard]] PhaseTotals phase_totals() const noexcept;

  /// Export the trace into `reg`'s trace buffer: one "request.<phase>"
  /// TraceEvent per record plus one enclosing "request" event spanning the
  /// first record's start to the last record's end, all on a synthetic
  /// per-request lane (tid derived from the id) and all carrying the
  /// "request" arg — Perfetto then shows one lane per request next to the
  /// worker-thread lanes. No-op for an id of 0 or an empty trace.
  void flush_to(MetricsRegistry& reg) const;

  /// The synthetic Perfetto lane (tid) this request's events land on.
  [[nodiscard]] static std::uint32_t lane_of(RequestTraceId id) noexcept;

 private:
  RequestTraceId id_ = 0;
  std::vector<Record> records_;
};

}  // namespace udsim
