#include "obs/metrics.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <ostream>

#include "harness/table.h"
#include "obs/json.h"
#include "obs/request_trace.h"

namespace udsim {

namespace {

[[nodiscard]] std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

[[nodiscard]] bool is_timing_key(std::string_view name) {
  return (name.size() >= 3 && name.substr(name.size() - 3) == ".ns") ||
         (name.size() >= 3 && name.substr(name.size() - 3) == ".us");
}

}  // namespace

std::uint32_t trace_thread_id() noexcept {
  static std::atomic<std::uint32_t> next{1};
  thread_local std::uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

MetricCounter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<MetricCounter>())
             .first;
  }
  return *it->second;
}

MetricHistogram& MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::make_unique<MetricHistogram>())
             .first;
  }
  return *it->second;
}

std::map<std::string, std::uint64_t> MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, c] : counters_) out.emplace(name, c->value());
  return out;
}

std::map<std::string, HistogramSnapshot> MetricsRegistry::snapshot_histograms()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, HistogramSnapshot> out;
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot s;
    s.count = h->count();
    s.sum = h->sum();
    s.min = h->min();
    s.max = h->max();
    for (int b = 0; b < MetricHistogram::kBuckets; ++b) {
      const std::uint64_t n = h->bucket(b);
      if (n != 0) s.buckets.emplace_back(MetricHistogram::bucket_floor(b), n);
    }
    out.emplace(name, std::move(s));
  }
  return out;
}

std::string MetricsRegistry::to_json(bool include_timings) const {
  const auto snap = snapshot();
  const auto hists = snapshot_histograms();
  std::string json = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snap) {
    if (!include_timings && is_timing_key(name)) continue;
    json += first ? "\n" : ",\n";
    first = false;
    json += "    \"" + name + "\": " + std::to_string(value);
  }
  json += first ? "}" : "\n  }";
  json += ",\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : hists) {
    if (!include_timings && is_timing_key(name)) continue;
    json += first ? "\n" : ",\n";
    first = false;
    json += "    \"" + name + "\": {\"count\": " + std::to_string(h.count) +
            ", \"sum\": " + std::to_string(h.sum) +
            ", \"min\": " + std::to_string(h.min) +
            ", \"max\": " + std::to_string(h.max) + ", \"buckets\": [";
    bool bfirst = true;
    for (const auto& [floor, n] : h.buckets) {
      if (!bfirst) json += ", ";
      bfirst = false;
      json += "[" + std::to_string(floor) + ", " + std::to_string(n) + "]";
    }
    json += "]}";
  }
  json += first ? "}" : "\n  }";
  json += "\n}";
  return json;
}

void MetricsRegistry::record_trace(TraceEvent event) {
  {
    std::lock_guard<std::mutex> lock(trace_mu_);
    if (trace_.size() < kMaxTraceEvents) {
      trace_.push_back(std::move(event));
      return;
    }
  }
  counter("trace.dropped").add(1);
}

std::vector<TraceEvent> MetricsRegistry::trace_events() const {
  std::lock_guard<std::mutex> lock(trace_mu_);
  return trace_;
}

std::size_t MetricsRegistry::trace_size() const {
  std::lock_guard<std::mutex> lock(trace_mu_);
  return trace_.size();
}

std::string MetricsRegistry::trace_to_json() const {
  const auto events = trace_events();
  std::uint64_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = counters_.find(std::string_view("trace.dropped"));
    if (it != counters_.end()) dropped = it->second->value();
  }
  std::string json = "{\"displayTimeUnit\": \"ns\", \"metadata\": {";
  json += "\"trace.events\": " + std::to_string(events.size());
  json += ", \"trace.dropped\": " + std::to_string(dropped);
  json += "}, \"traceEvents\": [";
  bool first = true;
  char buf[64];
  for (const TraceEvent& e : events) {
    json += first ? "\n" : ",\n";
    first = false;
    json += "  {\"name\": \"";
    json += json_escape(e.name);
    // Chrome trace timestamps are microseconds; keep ns resolution via the
    // fractional part.
    std::snprintf(buf, sizeof buf, "%" PRIu64 ".%03u", e.start_ns / 1000,
                  static_cast<unsigned>(e.start_ns % 1000));
    json += std::string("\", \"ph\": \"X\", \"ts\": ") + buf;
    std::snprintf(buf, sizeof buf, "%" PRIu64 ".%03u", e.dur_ns / 1000,
                  static_cast<unsigned>(e.dur_ns % 1000));
    json += std::string(", \"dur\": ") + buf;
    json += ", \"pid\": 1, \"tid\": " + std::to_string(e.tid);
    if (!e.args.empty()) {
      json += ", \"args\": {";
      bool afirst = true;
      for (const auto& [key, value] : e.args) {
        if (!afirst) json += ", ";
        afirst = false;
        json += "\"";
        json += json_escape(key);
        json += "\": " + std::to_string(value);
      }
      json += "}";
    }
    json += "}";
  }
  json += first ? "]}" : "\n]}";
  return json;
}

void MetricsRegistry::clear_trace() {
  std::lock_guard<std::mutex> lock(trace_mu_);
  trace_.clear();
}

void MetricsRegistry::print(std::ostream& out) const {
  Table table({"counter", "value"});
  for (const auto& [name, value] : snapshot()) {
    table.add_row({name, std::to_string(value)});
  }
  table.print(out);
}

void MetricsRegistry::reset() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [name, c] : counters_) c->set(0);
    for (auto& [name, h] : histograms_) h->reset_values();
  }
  clear_trace();
}

bool MetricsRegistry::empty() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.empty() && histograms_.empty();
}

TraceSpan::TraceSpan(MetricsRegistry* reg, std::string_view name) : reg_(reg) {
  if (!reg_) return;
  name_ = name;
  tid_ = trace_thread_id();
  start_ns_ = now_ns();
  // Spans opened inside a RequestTraceScope tag themselves with the request
  // id, cross-linking the thread lanes with the per-request lanes.
  if (const RequestTraceId req = current_request_trace_id(); req != 0) {
    args_.emplace_back("request", req);
  }
}

TraceSpan::~TraceSpan() {
  if (!reg_) return;
  const std::uint64_t dur = now_ns() - start_ns_;
  reg_->counter(name_ + ".ns").add(dur);
  reg_->counter(name_ + ".calls").add(1);
  reg_->record_trace(TraceEvent{std::move(name_), start_ns_, dur, tid_,
                                std::move(args_)});
}

void TraceSpan::arg(std::string_view key, std::uint64_t value) {
  if (!reg_) return;
  args_.emplace_back(std::string(key), value);
}

}  // namespace udsim
