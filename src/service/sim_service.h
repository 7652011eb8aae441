// Long-lived in-process simulation service (DESIGN.md §5i).
//
// SimService turns the library's one-shot entry points into a served
// resource: it owns a fingerprint-keyed cache of compiled simulators
// (single-flight builds, byte-budgeted LRU), a bounded request queue with
// visible backpressure, and a small worker pool, and wraps every request in
// the robustness envelope the lower layers provide — admission control via
// CompileBudget, per-request deadlines via CancelToken (inherited by the
// queue wait, the compile phase and the batch run), bounded whole-run
// retry-with-backoff over the shard retry/quarantine machinery, and a
// load-shed ladder that degrades (drop native, step down the chain, shrink
// thread shares) before it rejects. The self-healing layer (DESIGN.md §5k)
// rides on top: a circuit breaker over the external toolchain, a
// poison-request quarantine for deterministically failing netlists, and a
// health() state machine that names which dependency is limping.
//
// The hard contract: every submitted request resolves exactly once, with
// one Outcome — Completed, Cancelled, DeadlineExpired, Rejected, QueueFull,
// Failed or ShutDown. Never a hang, never a silent drop, never a double
// completion. tests/service_soak_test.cpp holds this under N concurrent
// clients × mixed circuits × injected faults × random cancellations, and
// checks admitted results bit-identical to a direct run_batch.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/compile_budget.h"
#include "core/simulator.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "obs/rolling_window.h"
#include "resilience/cancel.h"
#include "resilience/circuit_breaker.h"
#include "resilience/fault_injection.h"
#include "resilience/resilient_run.h"
#include "service/poison_ledger.h"
#include "service/program_cache.h"
#include "service/request_queue.h"
#include "service/service_types.h"
#include "service/session.h"
#include "service/shed_policy.h"

namespace udsim {

/// Three-state service health, ordered by severity (Degraded and Unhealthy
/// both still answer health probes; Unhealthy warns that requests are being
/// — or are about to be — refused).
enum class HealthState : std::uint8_t { Healthy, Degraded, Unhealthy };

[[nodiscard]] std::string_view health_state_name(HealthState s) noexcept;

/// Live-telemetry knobs (DESIGN.md §5l). Telemetry is on by default — the
/// rolling window and request traces are a few relaxed atomics and one
/// small vector per request (the ablation bench bounds the overhead);
/// the JSONL event log engages only when given a path.
struct TelemetryConfig {
  /// Master switch: off = no trace ids, no rolling window, no event log
  /// (status_json() still reports counters and health).
  bool enabled = true;
  /// Rolling-window geometry for windowed outcome counts and latency
  /// percentiles (default: 60 × 1 s).
  RollingWindowConfig window{};
  /// SLO targets evaluated against the window in status_json().
  SloConfig slo{};
  /// When non-empty, one JSON line per request resolution is appended here
  /// (bounded queue + writer thread; overflow drops are counted, never
  /// block a worker).
  std::string event_log_path;
  std::size_t event_log_capacity = 1024;
};

struct ServiceConfig {
  /// Request worker threads (each runs one request at a time; the batch
  /// phase of a request may fan out further, see `batch_threads`).
  unsigned workers = 2;
  /// Bounded queue capacity; a full queue is a structured QueueFull.
  std::size_t queue_capacity = 64;
  /// Compiled-program cache budget in resident bytes (0 = unbounded).
  std::size_t cache_budget_bytes = 0;
  /// Admission budget: a request none of whose chain engines fit is
  /// Rejected at submit() — before it consumes a queue slot.
  CompileBudget admission{};
  /// Engine preference chain (defaults to SimPolicy's chain). The shed
  /// ladder may skip its front under load.
  std::vector<EngineKind> chain = SimPolicy{}.chain;
  /// Allow EngineKind::Native at the chain front when the shed level
  /// permits (off by default: a service should opt into the external
  /// toolchain dependency).
  bool enable_native = false;
  NativeOptions native{};
  /// Circuit breaker over the external toolchain (DESIGN.md §5k): after
  /// `failure_threshold` consecutive toolchain failures the native engine
  /// is skipped untried (structured NativeBreakerOpen diagnostic, IR chain
  /// serves) until a cooldown probe succeeds. Only engaged with
  /// `enable_native`.
  CircuitBreakerConfig native_breaker{.name = "toolchain"};
  /// Poison-request quarantine: a netlist failing deterministically
  /// `strike_threshold` times is Rejected at submit() until its TTL lapses.
  PoisonLedgerConfig poison{};
  /// Default per-request batch worker threads (0 = all hardware threads);
  /// shed levels may cap it, SimRequest::batch_threads overrides it.
  unsigned batch_threads = 2;
  /// Whole-run re-attempts with backoff for transient failures
  /// (InjectedFault, bad_alloc, NativeError).
  RetryPolicy retry{};
  LoadShedPolicy shed{};
  /// Deterministic fault injection for the batch phase (tests/bench only).
  FaultInjector* inject = nullptr;
  /// Executor lane width request, resolved once at construction by
  /// dispatch_width (0 = 32 bits for every engine, as in SimPolicy;
  /// kWidthWidest; 32/64/128/256; UDSIM_FORCE_WIDTH overrides). The
  /// resolved width keys the program cache and is compiled into every
  /// engine the service builds.
  int word_bits = 0;
  /// Request tracing, rolling-window SLOs and the JSONL event log.
  TelemetryConfig telemetry{};
};

class SimService {
 public:
  explicit SimService(ServiceConfig cfg = {});
  /// Destruction shuts down: cancels running requests, resolves queued
  /// ones as ShutDown, joins the workers. No ticket is left unresolved.
  ~SimService();
  SimService(const SimService&) = delete;
  SimService& operator=(const SimService&) = delete;

  /// Register a client session; its id scopes per-client metrics.
  [[nodiscard]] SessionId open_session(std::string name = "");

  /// Enqueue one request. Always returns a ticket whose future resolves
  /// exactly once; structural refusals (bad shape, admission budget,
  /// backpressure, shut down) resolve immediately.
  [[nodiscard]] ServiceTicket submit(SessionId session, SimRequest req);

  /// Synchronous convenience: submit and wait.
  [[nodiscard]] SimResponse run(SessionId session, SimRequest req);

  /// Request cancellation of a submitted request (best effort: the request
  /// stops at its next poll boundary, resolving as Cancelled with a
  /// checkpoint when the batch phase had started on a compiled engine).
  /// Returns false when the id is unknown or already resolved.
  bool cancel(std::uint64_t request_id);

  /// Stop accepting work, cancel running requests, resolve queued ones as
  /// ShutDown, join workers. Idempotent; also run by the destructor.
  void shutdown();

  /// Service-wide registry (service.*, plus compile/exec counters of the
  /// engines built through the cache).
  [[nodiscard]] MetricsRegistry& metrics() noexcept { return metrics_; }

  /// Per-session report (counters + histograms as JSON), "{}" for an
  /// unknown session.
  [[nodiscard]] std::string session_report(SessionId session) const;

  struct Stats {
    std::size_t queue_depth = 0;
    std::size_t queue_capacity = 0;
    std::size_t active_requests = 0;  ///< submitted, not yet resolved
    std::size_t cache_entries = 0;
    std::size_t cache_bytes = 0;
    std::size_t shed_level = 0;  ///< level of the most recent schedule
    std::size_t quarantined = 0;  ///< poison-ledger quarantine population
    BreakerState breaker = BreakerState::Closed;  ///< toolchain breaker
  };
  [[nodiscard]] Stats stats() const;

  /// Aggregate health model (DESIGN.md §5k): the worst state over the
  /// service's components. Healthy = every dependency and resource is
  /// nominal; Degraded = serving, but on a fallback path or under pressure
  /// (toolchain breaker open/half-open, queue ≥ 50% full, shed ladder
  /// engaged, poison quarantine populated); Unhealthy = refusing or about
  /// to refuse work (queue ≥ 90% full, deepest shed level, shut down).
  struct HealthComponent {
    std::string name;
    HealthState state = HealthState::Healthy;
    std::string detail;
  };
  struct HealthReport {
    HealthState state = HealthState::Healthy;  ///< max over components
    std::vector<HealthComponent> components;
  };
  [[nodiscard]] HealthReport health() const;

  /// health() as JSON, shape:
  /// {"state":"degraded","components":[{"name":"toolchain.breaker",
  ///  "state":"degraded","detail":"open (...)"},...]}.
  [[nodiscard]] std::string health_json() const;

  /// One live status document composing stats(), health(), cumulative
  /// outcome counters, the rolling-window view with latency percentiles,
  /// the SLO evaluation and event-log accounting. Every number is emitted
  /// through the obs/json DOM (exact uint64), so the document round-trips
  /// through JsonValue::parse.
  [[nodiscard]] std::string status_json() const;

  /// The rolling outcome/latency window, or nullptr when telemetry is off.
  [[nodiscard]] const RollingWindow* window() const noexcept {
    return window_.get();
  }
  /// The JSONL event log, or nullptr when no path was configured.
  [[nodiscard]] JsonlEventLog* event_log() noexcept { return events_.get(); }

  /// Which Outcome slots count as "good" for the SLO: everything except
  /// the service-side failures and refusals (Failed, QueueFull, Rejected,
  /// ShutDown). Client-initiated stops are not availability errors.
  [[nodiscard]] static std::vector<bool> good_outcome_slots();

 private:
  struct Pending {
    std::uint64_t id = 0;
    std::shared_ptr<ServiceSession> session;
    SimRequest req;
    std::promise<SimResponse> promise;
    std::atomic<bool> resolved{false};
    CancelToken token;
    std::chrono::steady_clock::time_point submitted;
    /// Lifecycle phases (single-writer: the submit thread until queued,
    /// then the worker that popped it — the queue is the hand-off edge).
    RequestTrace trace;
  };

  void worker_loop();
  void run_one(const std::shared_ptr<Pending>& p, std::size_t depth_at_pop);
  /// Exactly-once resolution: first caller wins, records outcome counters
  /// and per-session metrics, erases the active entry, fulfills the future.
  void resolve(Pending& p, SimResponse&& resp);

  ServiceConfig cfg_;
  mutable MetricsRegistry metrics_;  // internally thread-safe; const reads
  CircuitBreaker breaker_;  ///< toolchain; wired only with enable_native
  PoisonLedger poison_;
  ProgramCache cache_;
  std::unique_ptr<RollingWindow> window_;   ///< null when telemetry is off
  std::unique_ptr<JsonlEventLog> events_;   ///< null without a log path
  BoundedQueue<std::shared_ptr<Pending>> queue_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> next_id_{0};

  mutable std::mutex mu_;
  std::map<std::uint64_t, std::shared_ptr<Pending>> active_;
  std::map<SessionId, std::shared_ptr<ServiceSession>> sessions_;
  std::shared_ptr<ServiceSession> anonymous_session_;
  SessionId next_session_ = 0;
  bool joined_ = false;

  std::vector<std::thread> workers_;
};

}  // namespace udsim
