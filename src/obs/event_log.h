// Bounded structured JSONL event log (DESIGN.md §5l).
//
// One line of JSON per service request *resolution*, appended to a file by
// a dedicated writer thread behind a bounded queue. The producer side is a
// mutex-guarded push of a plain ResolutionEvent that never blocks on I/O
// and never renders: when the writer cannot keep up and the queue is full,
// the event is dropped and *counted* — the log is self-describing about its
// own losses, so "every resolution appears exactly once in the log or in
// the drop counter" is a checkable invariant (the soak test holds it).
//
// The event schema lives here: render_event_line() turns a record into one
// line, on the writer thread, straight into a string (json_escape for the
// text fields, no DOM). The line is byte-for-byte what the obs/json DOM's
// dump(0) produces for the same fields, so it round-trips through the
// hardened parser. The sink guarantees atomicity per line (single writer
// thread, one fwrite per line + newline) and eventual durability (flush()
// drains and fflushes; the destructor drains).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

#include "obs/metrics.h"
#include "obs/request_trace.h"

namespace udsim {

/// One request resolution, as queued by the service. The name fields point
/// at static storage (outcome_name, engine_name, the cache-disposition
/// literals), so a record owns only `detail` and copies cheaply.
struct ResolutionEvent {
  std::uint64_t trace_id = 0;
  std::uint64_t request_id = 0;
  std::uint64_t session = 0;
  std::string_view outcome;
  std::string_view engine;
  std::uint64_t width = 0;
  std::string_view cache;  ///< "hit", "wait", "build" or "none"
  std::uint64_t shed_level = 0;
  std::uint64_t attempts = 0;
  std::uint64_t vectors_done = 0;
  std::uint64_t latency_ns = 0;
  std::uint64_t queue_ns = 0;
  std::uint64_t run_ns = 0;
  /// Summed ns per RequestPhase, indexed by the enum's value; zero phases
  /// (and the durationless Resolve) are left out of the line.
  RequestTrace::PhaseTotals phase_ns{};
  std::string detail;  ///< left out of the line when empty
};

/// The one-line JSON for `e`, without a trailing newline:
/// {"trace_id": 7, ..., "phase_ns": {"admission": 1208, ...}, "detail": "..."}.
[[nodiscard]] std::string render_event_line(const ResolutionEvent& e);

struct EventLogConfig {
  std::string path;            ///< file appended to; must be non-empty
  std::size_t capacity = 1024; ///< queued events before append() drops
};

class JsonlEventLog {
 public:
  /// Opens `cfg.path` for append. When `metrics` is non-null, written and
  /// dropped lines bump events.written / events.dropped. A path that cannot
  /// be opened leaves ok() false; append() then drops (and counts) every
  /// event instead of crashing the service over its telemetry.
  explicit JsonlEventLog(EventLogConfig cfg, MetricsRegistry* metrics = nullptr);
  /// Drains the queue, flushes and closes the file, joins the writer.
  ~JsonlEventLog();
  JsonlEventLog(const JsonlEventLog&) = delete;
  JsonlEventLog& operator=(const JsonlEventLog&) = delete;

  /// Enqueue one event; the writer thread renders and writes its line.
  /// Returns false — and bumps the drop counter — when the queue is at
  /// capacity or the sink is unusable. Never blocks on I/O.
  bool append(ResolutionEvent event);

  /// Block until every event enqueued before the call is written and
  /// fflush()ed. Safe from any thread.
  void flush();

  [[nodiscard]] std::uint64_t written() const noexcept {
    return written_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool ok() const noexcept { return file_ != nullptr; }
  [[nodiscard]] const std::string& path() const noexcept { return cfg_.path; }

 private:
  void writer_loop();

  EventLogConfig cfg_;
  MetricsRegistry* metrics_;
  std::FILE* file_ = nullptr;

  std::mutex mu_;
  std::condition_variable work_cv_;   ///< producer → writer
  std::condition_variable drain_cv_;  ///< writer → flush()ers
  std::deque<ResolutionEvent> queue_;
  bool stopping_ = false;
  bool writer_idle_ = true;

  std::atomic<std::uint64_t> written_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::thread writer_;
};

}  // namespace udsim
