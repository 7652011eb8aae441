#include "obs/request_trace.h"

#include <atomic>
#include <string>

namespace udsim {

namespace {

/// Seed the mint with the process start time so ids from two SimService
/// instances (or a service restarted in one process) never repeat.
std::atomic<std::uint64_t>& trace_id_source() noexcept {
  static std::atomic<std::uint64_t> next{
      (static_cast<std::uint64_t>(
           std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
               .count())
       << 20) |
      1};
  return next;
}

thread_local RequestTraceId tls_current_trace = 0;

}  // namespace

RequestTraceId mint_request_trace_id() noexcept {
  const RequestTraceId id =
      trace_id_source().fetch_add(1, std::memory_order_relaxed);
  return id == 0 ? mint_request_trace_id() : id;
}

std::uint64_t trace_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string_view request_phase_name(RequestPhase p) noexcept {
  switch (p) {
    case RequestPhase::Admission:  return "admission";
    case RequestPhase::QueueWait:  return "queue_wait";
    case RequestPhase::ShedDecide: return "shed_decide";
    case RequestPhase::CacheHit:   return "cache_hit";
    case RequestPhase::CacheWait:  return "cache_wait";
    case RequestPhase::CacheBuild: return "cache_build";
    case RequestPhase::RunAttempt: return "run_attempt";
    case RequestPhase::Backoff:    return "backoff";
    case RequestPhase::Resolve:    return "resolve";
  }
  return "?";
}

RequestTraceScope::RequestTraceScope(RequestTraceId id) noexcept {
  if (id == 0) return;
  previous_ = tls_current_trace;
  tls_current_trace = id;
  engaged_ = true;
}

RequestTraceScope::~RequestTraceScope() {
  if (engaged_) tls_current_trace = previous_;
}

RequestTraceId current_request_trace_id() noexcept {
  return tls_current_trace;
}

RequestTrace::PhaseTotals RequestTrace::phase_totals() const noexcept {
  PhaseTotals sums{};
  for (const Record& r : records_) {
    sums[static_cast<std::size_t>(r.phase)] += r.dur_ns;
  }
  return sums;
}

std::uint32_t RequestTrace::lane_of(RequestTraceId id) noexcept {
  // Worker-thread tids are small ordinals (1, 2, ...); request lanes live
  // far above them so the two families never collide in the export.
  return static_cast<std::uint32_t>(1000000 + id % 1000000);
}

void RequestTrace::flush_to(MetricsRegistry& reg) const {
  if (id_ == 0 || records_.empty()) return;
  const std::uint32_t lane = lane_of(id_);
  std::uint64_t first = records_.front().start_ns;
  std::uint64_t last = 0;
  for (const Record& r : records_) {
    if (r.start_ns < first) first = r.start_ns;
    if (r.start_ns + r.dur_ns > last) last = r.start_ns + r.dur_ns;
    TraceEvent e;
    e.name = "request." + std::string(request_phase_name(r.phase));
    e.start_ns = r.start_ns;
    e.dur_ns = r.dur_ns;
    e.tid = lane;
    e.args.emplace_back("request", id_);
    if (r.arg != 0) e.args.emplace_back("value", r.arg);
    reg.record_trace(std::move(e));
  }
  TraceEvent whole;
  whole.name = "request";
  whole.start_ns = first;
  whole.dur_ns = last > first ? last - first : 0;
  whole.tid = lane;
  whole.args.emplace_back("request", id_);
  reg.record_trace(std::move(whole));
}

}  // namespace udsim
