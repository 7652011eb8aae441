#include "trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <stdexcept>

namespace pb {

namespace {

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

Tracer::Tracer() : enabled_(false), origin_ns_(steady_ns()) {}

std::uint64_t Tracer::now_ns() const { return steady_ns() - origin_ns_; }

std::int64_t Tracer::open(const std::string& name, std::uint64_t request) {
  if (!enabled_) return -1;
  const std::lock_guard lock(mu_);
  const auto [it, inserted] = threads_.emplace(
      std::this_thread::get_id(), static_cast<std::uint32_t>(threads_.size()));
  auto& stack = open_[it->second];
  Span s;
  s.name = name;
  s.parent = stack.empty() ? -1 : stack.back();
  s.request = request;
  s.thread = it->second;
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  const auto id = static_cast<std::int64_t>(spans_.size() - 1);
  stack.push_back(id);
  return id;
}

double Tracer::close(std::int64_t id) {
  if (id < 0) return 0.0;
  const std::uint64_t end = now_ns();
  const std::lock_guard lock(mu_);
  Span& s = spans_.at(static_cast<std::size_t>(id));
  s.end_ns = end;
  auto& stack = open_[s.thread];
  stack.erase(std::remove(stack.begin(), stack.end(), id), stack.end());
  return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
}

void Tracer::set_request(std::int64_t id, std::uint64_t request) {
  if (id < 0) return;
  const std::lock_guard lock(mu_);
  spans_.at(static_cast<std::size_t>(id)).request = request;
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard lock(mu_);
  return spans_;
}

std::map<std::string, double> Tracer::self_seconds() const {
  const std::vector<Span> all = spans();
  // Children of one span run on its thread, one after another, so the part
  // of the parent they cover is the sum of their durations.
  std::vector<double> covered(all.size(), 0.0);
  for (const Span& s : all) {
    if (s.parent >= 0) {
      covered[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const double d = static_cast<double>(all[i].end_ns - all[i].start_ns) * 1e-9;
    self[all[i].name] += d - covered[i];
  }
  return self;
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  const std::vector<Span> all = spans();
  out << "{\"spans\":[";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\""
        << json_escape(s.name) << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"thread\":" << s.thread;
    if (s.request != 0) out << ",\"request\":" << s.request;
    out << "}";
  }
  out << "\n],\"self_s\":{";
  bool first = true;
  for (const auto& [name, secs] : self_seconds()) {
    out << (first ? "\n" : ",\n") << "\"" << json_escape(name) << "\":" << secs;
    first = false;
  }
  out << "\n}}\n";
  if (!out) throw std::runtime_error("short write of spans to " + path);
}

}  // namespace pb
