// In-memory spans recorded by the benchmark around its own calls into each
// udsim layer. Nothing inside the library is instrumented: a span covers one
// call of a layer's public function, as the caller sees it.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace pb {

struct Span {
  std::string name;
  std::uint64_t start_ns = 0;  ///< steady clock, relative to the tracer's start
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;    ///< index of the enclosing span, -1 for a root
  std::uint64_t request = 0;   ///< request id (serve workload), 0 otherwise
  std::uint32_t thread = 0;    ///< small per-tracer thread number
};

/// Span recorder. Disabled (the initial state), every call is a no-op and
/// reads no clock. Spans nest per thread: a span opened while another is
/// open on the same thread becomes its child.
class Tracer {
 public:
  Tracer();

  /// Switch recording on or off; call only while no span is being opened,
  /// i.e. between a workload's phases.
  void set_enabled(bool on) noexcept { enabled_ = on; }

  /// Open a span; returns its index (-1 when disabled).
  std::int64_t open(const std::string& name, std::uint64_t request = 0);
  /// Close span `id` (opened on this thread); returns its duration in s.
  double close(std::int64_t id);
  /// Tag span `id` with a request id learnt after it was opened.
  void set_request(std::int64_t id, std::uint64_t request);

  /// Per span name: total self time in seconds (duration minus the time its
  /// children cover).
  [[nodiscard]] std::map<std::string, double> self_seconds() const;
  /// Write every span and the self-time summary as JSON to `path`.
  void write_json(const std::string& path) const;

 private:
  [[nodiscard]] std::uint64_t now_ns() const;
  /// Copy of every recorded span.
  [[nodiscard]] std::vector<Span> spans() const;

  bool enabled_;
  std::uint64_t origin_ns_ = 0;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::thread::id, std::uint32_t> threads_;  ///< -> small number
  std::map<std::uint32_t, std::vector<std::int64_t>> open_;  ///< per thread
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& t, const std::string& name, std::uint64_t request = 0)
      : t_(t), id_(t.open(name, request)) {}
  ~Scope() { close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  void set_request(std::uint64_t request) {
    if (id_ >= 0) t_.set_request(id_, request);
  }
  /// Close early; returns the span's duration in s (0 when disabled).
  double close() {
    const double d = id_ >= 0 ? t_.close(id_) : 0.0;
    id_ = -1;
    return d;
  }

 private:
  Tracer& t_;
  std::int64_t id_;
};

}  // namespace pb
