// Shared pieces of the udsim benchmark: arguments, statistics, the oracle
// output check and the result report every workload fills in.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/simulator.h"
#include "netlist/netlist.h"
#include "trace.h"

namespace pb {

using udsim::Bit;

/// Generator seed of every benchmark circuit. The circuits are fixed, like
/// a benchmark suite: a compiled engine's run time depends on the circuit's
/// structure and not on vector values, and a circuit drawn per --seed moved
/// build time by 11% and native throughput by 13% between seeds. --seed
/// draws the vectors, the oracle-checked rows and the request mix.
constexpr std::uint64_t kCircuitSeed = 1;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Small circuits and short streams: the smoke test's scale.
  bool tiny = false;
  /// Flip one output bit of the first checked operation, to show that the
  /// output check counts it as failed.
  bool corrupt = false;
  /// Directory the traced run writes its spans to.
  std::string out_dir = ".";
};

struct MetricDef {
  std::string name;
  std::string unit;
};
/// Printed by every untraced run.
[[nodiscard]] const std::vector<MetricDef>& end_to_end_metrics();
/// Printed by every traced run.
[[nodiscard]] const std::vector<MetricDef>& per_layer_metrics();

[[nodiscard]] double now_s();
[[nodiscard]] double median(std::vector<double> v);
/// Quantile q in [0, 1] with linear interpolation between order statistics.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double geomean(const std::vector<double>& v);
/// The job time the end-to-end metrics report: the lower quartile of a
/// run's per-job times. Memory-heavy jobs (cc, alignment, wide arenas) on a
/// shared host run up to 40% slower, back to back, when co-tenants contend
/// for the memory system; contention only adds time, so the lower quartile
/// moves less with it than the median while still moving with any change
/// to the jobs themselves.
[[nodiscard]] double job_time(const std::vector<double>& times);
[[nodiscard]] double peak_rss_mb();

/// `n` seeded random vectors, row-major, one Bit per primary input.
[[nodiscard]] std::vector<Bit> random_vectors(std::size_t pis, std::size_t n,
                                              std::uint64_t seed);

/// Settled primary-output values of selected vector rows, computed by the
/// independent OracleSim interpreter. The circuits are combinational, so a
/// row's settled outputs depend on that row's inputs alone and any subset of
/// rows can be checked without replaying the whole stream.
class OracleRows {
 public:
  OracleRows(const udsim::Netlist& nl, std::span<const Bit> vectors,
             std::vector<std::size_t> rows);
  /// Rows of `r` (which ran `vectors` from row 0) that disagree with the
  /// oracle; rows beyond r.vectors are skipped.
  [[nodiscard]] std::size_t mismatches(const udsim::BatchResult& r) const;
  /// The oracle's outputs, one row of primary outputs per checked row.
  [[nodiscard]] const std::vector<Bit>& expected() const noexcept {
    return expected_;
  }

 private:
  std::size_t outputs_;
  std::vector<std::size_t> rows_;
  std::vector<Bit> expected_;  ///< one row of outputs per checked row
};

/// `k` distinct row indices in [0, n), seeded, always including 0 and n-1.
[[nodiscard]] std::vector<std::size_t> sample_rows(std::size_t n, std::size_t k,
                                                   std::uint64_t seed);

/// Metrics, operation counts and spans of one benchmark run.
class Report {
 public:
  explicit Report(const Args& args) : args_(args) {}

  void set(const std::string& name, double value);
  /// One operation finished; `ok` = it passed every check.
  void op(bool ok, const std::string& what = {});
  [[nodiscard]] Tracer& tracer() noexcept { return tracer_; }
  [[nodiscard]] const Args& args() const noexcept { return args_; }

  /// Flip one bit of `r` the first time it is called with --corrupt
  /// (safe from several threads).
  void maybe_corrupt(udsim::BatchResult& r);

  /// Print the final JSON line (end-to-end or per-layer metric set) and
  /// return the process exit code.
  int finish();

 private:
  Args args_;
  Tracer tracer_;
  std::map<std::string, double> values_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::atomic<bool> corrupted_{false};
};

using WorkloadFn = void (*)(Report&);
void run_stream(Report& rep);
void run_build(Report& rep);
/// Native-layer phase of build's traced run: at least one round, then
/// rounds until `seconds` have passed.
void trace_native(Report& rep, double seconds);
void run_serve(Report& rep);

}  // namespace pb
