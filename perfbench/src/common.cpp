#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>

#include "gen/rng.h"
#include "harness/vectors.h"
#include "oracle/oracle.h"

namespace pb {

namespace {

const std::vector<std::string> kTechniques = {"parallel", "pcset", "lcc"};

std::vector<MetricDef> make_per_layer() {
  std::vector<MetricDef> m;
  // stream: executor passes, batch sharding, emitted program size.
  for (const char* c : {"c6288", "c7552"}) {
    for (const std::string& t : kTechniques) {
      m.push_back({"exec." + t + ".pass_us." + c, "us"});
      m.push_back({"exec." + t + ".ns_per_op." + c, "ns"});
      m.push_back({"exec." + t + ".ops_per_vector." + c, "count"});
      m.push_back({"batch." + t + ".speedup." + c, "x"});
      m.push_back({"compile.ops." + t + "." + c, "count"});
    }
    m.push_back({std::string("batch.seam_ratio.") + c, "ratio"});
  }
  for (const std::string& t : kTechniques) {
    m.push_back({"stream." + t + "_vps", "1/s"});
  }
  // build: parse, analysis phases, engine construction, validation.
  for (const char* c : {"mult", "dag"}) {
    for (const char* name :
         {"netlist.parse_s", "analysis.levelize_s", "analysis.pcset_s",
          "analysis.align_s", "analysis.trim_s", "compile.engine_s",
          "resilience.validate_s", "build.first_batch_s"}) {
      m.push_back({std::string(name) + "." + c, "s"});
    }
    m.push_back({std::string("compile.ops.parallel.") + c, "count"});
  }
  // build's native phase: C emission, cc + dlopen, the loaded module's pass.
  for (const char* c : {"c880", "c1908"}) {
    m.push_back({std::string("native.build_s.") + c, "s"});
    m.push_back({std::string("native.emit_s.") + c, "s"});
    m.push_back({std::string("native.c_kb.") + c, "kB"});
    m.push_back({std::string("native.module_s.") + c, "s"});
    m.push_back({std::string("native.cc_load_s.") + c, "s"});
    m.push_back({std::string("native.pass_us.") + c, "us"});
  }
  // serve: queue, cache, request overhead, telemetry.
  m.push_back({"service.queue_ms", "ms"});
  m.push_back({"service.run_ms", "ms"});
  m.push_back({"service.overhead_ms", "ms"});
  m.push_back({"service.cache_hit_ratio", "ratio"});
  m.push_back({"service.attempts_ratio", "ratio"});
  m.push_back({"service.p99_ms", "ms"});
  m.push_back({"service.req_s", "1/s"});
  m.push_back({"obs.telemetry_ms", "ms"});
  m.push_back({"trace.overhead_pct", "%"});
  return m;
}

std::string format_number(double v) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << v;
  return os.str();
}

}  // namespace

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> m = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"vps", "1/s"},
      {"op_ms", "ms"},
  };
  return m;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> m = make_per_layer();
  return m;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::logic_error("quantile of an empty sample");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) throw std::logic_error("geomean of an empty sample");
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double job_time(const std::vector<double>& times) {
  return quantile(times, 0.25);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::vector<Bit> random_vectors(std::size_t pis, std::size_t n,
                                std::uint64_t seed) {
  std::vector<Bit> v(pis * n);
  udsim::RandomVectorSource src(pis, seed);
  for (std::size_t r = 0; r < n; ++r) {
    src.next(std::span<Bit>(v.data() + r * pis, pis));
  }
  return v;
}

std::vector<std::size_t> sample_rows(std::size_t n, std::size_t k,
                                     std::uint64_t seed) {
  std::set<std::size_t> rows;
  if (n == 0) return {};
  rows.insert(0);
  rows.insert(n - 1);
  udsim::Rng rng(seed);
  while (rows.size() < std::min(n, k)) rows.insert(rng.below(n));
  return {rows.begin(), rows.end()};
}

OracleRows::OracleRows(const udsim::Netlist& nl, std::span<const Bit> vectors,
                       std::vector<std::size_t> rows)
    : outputs_(nl.primary_outputs().size()), rows_(std::move(rows)) {
  const std::size_t pis = nl.primary_inputs().size();
  udsim::OracleSim oracle(nl);
  expected_.reserve(rows_.size() * outputs_);
  for (std::size_t row : rows_) {
    oracle.reset();
    const udsim::Waveform w = oracle.step(vectors.subspan(row * pis, pis));
    for (udsim::NetId po : nl.primary_outputs()) {
      expected_.push_back(w.final_value(po));
    }
  }
}

std::size_t OracleRows::mismatches(const udsim::BatchResult& r) const {
  if (r.outputs.size() != outputs_) return rows_.size();
  std::size_t bad = 0;
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const std::size_t row = rows_[i];
    if (row >= r.vectors) continue;
    if (!std::equal(r.values.begin() + static_cast<std::ptrdiff_t>(row * outputs_),
                    r.values.begin() +
                        static_cast<std::ptrdiff_t>((row + 1) * outputs_),
                    expected_.begin() + static_cast<std::ptrdiff_t>(i * outputs_))) {
      ++bad;
    }
  }
  return bad;
}

void Report::set(const std::string& name, double value) {
  if (!std::isfinite(value)) {
    throw std::logic_error("metric " + name + " is not finite");
  }
  values_[name] = value;
}

void Report::op(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "udbench: failed operation: " << what << "\n";
  }
}

void Report::maybe_corrupt(udsim::BatchResult& r) {
  if (!args_.corrupt || r.values.empty() || corrupted_.exchange(true)) return;
  r.values[0] ^= 1;  // row 0 is always among the checked rows
}

int Report::finish() {
  const auto& defs = args_.trace ? per_layer_metrics() : end_to_end_metrics();
  std::set<std::string> known;
  for (const MetricDef& d : defs) known.insert(d.name);
  for (const auto& [name, v] : values_) {
    if (!known.count(name)) {
      throw std::logic_error("metric " + name + " is not in the metric table");
    }
  }
  std::ostringstream os;
  os << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : defs) {
    const auto it = values_.find(d.name);
    double v = 0.0;
    if (it != values_.end()) {
      v = it->second;
    } else if (!args_.trace) {
      throw std::logic_error("end-to-end metric " + d.name + " was not measured");
    }
    // A per-layer metric of a layer this workload does not load reads 0.
    os << (first ? "" : ", ") << "\"" << d.name << "\": {\"value\": "
       << format_number(v) << ", \"unit\": \"" << d.unit << "\"}";
    first = false;
  }
  os << "}}";
  std::cout << os.str() << std::endl;
  return failed_ == 0 && attempted_ > 0 ? 0 : 1;
}

}  // namespace pb
