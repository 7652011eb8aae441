#include "obs/event_log.h"

#include <utility>
#include <vector>

#include "obs/json.h"

namespace udsim {

namespace {

// The line mirrors JsonValue::dump(0): members joined by ", ", keys and
// values split by ": ", integers in decimal, strings through json_escape.
// Every member but the first (trace_id) goes through these helpers.
void put_key(std::string& out, std::string_view key) {
  out += ", \"";
  out += key;
  out += "\": ";
}

void put_uint(std::string& out, std::string_view key, std::uint64_t v) {
  put_key(out, key);
  out += std::to_string(v);
}

void put_string(std::string& out, std::string_view key, std::string_view v) {
  put_key(out, key);
  out += '"';
  out += json_escape(v);
  out += '"';
}

}  // namespace

std::string render_event_line(const ResolutionEvent& e) {
  std::string out = "{\"trace_id\": " + std::to_string(e.trace_id);
  put_uint(out, "request_id", e.request_id);
  put_uint(out, "session", e.session);
  put_string(out, "outcome", e.outcome);
  put_string(out, "engine", e.engine);
  put_uint(out, "width", e.width);
  put_string(out, "cache", e.cache);
  put_uint(out, "shed_level", e.shed_level);
  put_uint(out, "attempts", e.attempts);
  put_uint(out, "vectors_done", e.vectors_done);
  put_uint(out, "latency_ns", e.latency_ns);
  put_uint(out, "queue_ns", e.queue_ns);
  put_uint(out, "run_ns", e.run_ns);
  put_key(out, "phase_ns");
  out += '{';
  bool first_phase = true;
  for (std::size_t i = 0; i < e.phase_ns.size(); ++i) {
    const auto phase = static_cast<RequestPhase>(i);
    if (phase == RequestPhase::Resolve || e.phase_ns[i] == 0) continue;
    out += first_phase ? "\"" : ", \"";
    out += request_phase_name(phase);
    out += "\": ";
    out += std::to_string(e.phase_ns[i]);
    first_phase = false;
  }
  out += '}';
  if (!e.detail.empty()) put_string(out, "detail", e.detail);
  out += '}';
  return out;
}

JsonlEventLog::JsonlEventLog(EventLogConfig cfg, MetricsRegistry* metrics)
    : cfg_(std::move(cfg)), metrics_(metrics) {
  if (cfg_.capacity == 0) cfg_.capacity = 1;
  if (!cfg_.path.empty()) file_ = std::fopen(cfg_.path.c_str(), "a");
  if (file_ != nullptr) {
    writer_ = std::thread([this] { writer_loop(); });
  }
}

JsonlEventLog::~JsonlEventLog() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  if (writer_.joinable()) writer_.join();
  if (file_ != nullptr) {
    std::fflush(file_);
    std::fclose(file_);
  }
}

bool JsonlEventLog::append(ResolutionEvent event) {
  if (file_ != nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!stopping_ && queue_.size() < cfg_.capacity) {
      queue_.push_back(std::move(event));
      work_cv_.notify_one();
      return true;
    }
  }
  dropped_.fetch_add(1, std::memory_order_relaxed);
  metric_add(metrics_, "events.dropped", 1);
  return false;
}

void JsonlEventLog::flush() {
  if (file_ == nullptr) return;
  {
    std::unique_lock<std::mutex> lock(mu_);
    drain_cv_.wait(lock, [this] {
      return (queue_.empty() && writer_idle_) || stopping_;
    });
  }
  std::fflush(file_);
}

void JsonlEventLog::writer_loop() {
  std::vector<ResolutionEvent> batch;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      writer_idle_ = true;
      drain_cv_.notify_all();
      work_cv_.wait(lock, [this] { return !queue_.empty() || stopping_; });
      if (queue_.empty() && stopping_) return;
      // Take the whole backlog in one swap so the producers' lock hold time
      // stays independent of rendering and I/O latency.
      batch.assign(std::make_move_iterator(queue_.begin()),
                   std::make_move_iterator(queue_.end()));
      queue_.clear();
      writer_idle_ = false;
    }
    for (const ResolutionEvent& event : batch) {
      std::string line = render_event_line(event);
      line.push_back('\n');
      std::fwrite(line.data(), 1, line.size(), file_);
      written_.fetch_add(1, std::memory_order_relaxed);
      metric_add(metrics_, "events.written", 1);
    }
    std::fflush(file_);
    batch.clear();
  }
}

}  // namespace udsim
