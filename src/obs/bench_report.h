// Bench-regression harness core (DESIGN.md §5g): run a set of circuits
// through a set of engines, collect throughput plus the *exact* counters
// PR 3 made available, and serialize everything to one schema-versioned
// JSON document (BENCH_results.json). `check_bench_report` diffs a current
// report against a committed baseline: any exact-counter drift is a hard
// violation (those numbers are deterministic by construction), while
// throughput only fails beyond a configurable tolerance (wall clocks are
// noisy; counters are not).
//
// The driver binary is bench/bench_report.cpp; this core lives in the
// library so the `report`-labelled tests can exercise collection and
// checking in-process.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/engine_kind.h"

namespace udsim {

class JsonValue;
class Netlist;

inline constexpr const char* kBenchReportSchema = "udsim-bench-report-v1";

/// One (circuit, engine, width) measurement row.
struct BenchEngineResult {
  std::string engine;      ///< stable slug, e.g. "parallel-combined"
  unsigned threads = 1;    ///< batch worker threads (1 = sequential step loop)
  int word_bits = 32;      ///< dispatched executor lane width of this row
  double seconds = 0.0;    ///< median wall time of one timed run
  double vectors_per_sec = 0.0;
  double us_per_vector = 0.0;
  double arena_bytes_per_gate = 0.0;  ///< peak compile bytes / gate count
  /// Deterministic counters (exec.ops, compile.*, sim.vectors, ...): equal
  /// across runs for fixed (circuit, vectors, seed), so a baseline diff of
  /// any of these is a real behavior change, not noise.
  std::map<std::string, std::uint64_t> exact;
};

struct BenchCircuitResult {
  std::string circuit;
  std::uint64_t gates = 0;
  std::uint64_t inputs = 0;
  std::uint64_t outputs = 0;
  std::vector<BenchEngineResult> engines;
};

struct BenchReport {
  std::string schema = kBenchReportSchema;
  std::uint64_t vectors = 0;
  std::uint64_t seed = 0;
  int trials = 0;
  unsigned batch_threads = 2;
  int word_bits = 32;
  std::vector<BenchCircuitResult> circuits;

  [[nodiscard]] std::string to_json() const;
};

struct BenchRunConfig {
  std::size_t vectors = 256;
  int trials = 3;
  std::uint64_t seed = 88172645463325252ull;
  unsigned batch_threads = 2;
  /// Engines measured with a sequential (1-thread) batch run.
  std::vector<EngineKind> engines{EngineKind::ZeroDelayLcc, EngineKind::PCSet,
                                  EngineKind::ParallelCombined};
  /// Also measure ParallelCombined sharded across batch_threads workers.
  bool with_batch = true;
  /// Also measure EngineKind::Native (the dlopen backend) with 1 thread —
  /// the ir-vs-native row quantifying the interpreter tax. Opt-in (the
  /// driver enables it): the row is appended, so a baseline without it
  /// still checks clean (check_bench_report walks the baseline's rows), and
  /// a machine without a C compiler just skips the row.
  bool with_native = false;
};

/// Measure every circuit × engine, plus one zero-delay-lcc row per lane
/// width supported_widths() reports (widths this build/CPU lacks are absent;
/// check_bench_report flags the coverage loss against a baseline that had
/// them). Timing runs detached from metrics (the measured loop is the
/// production loop); the exact counters come from one separate metered run
/// of exactly `vectors` vectors, so they are independent of the trial
/// count.
[[nodiscard]] BenchReport run_bench_report(
    const std::vector<std::pair<std::string, const Netlist*>>& circuits,
    const BenchRunConfig& cfg = {});

/// "zero-delay-lcc", "pcset", "parallel-combined", ...
[[nodiscard]] std::string bench_engine_slug(EngineKind k);

struct BenchCheckConfig {
  double max_regression_pct = 25.0;  ///< allowed vectors/sec drop vs baseline
  bool check_throughput = true;
};

/// Compare `current` against a parsed baseline document. Returns one
/// human-readable string per violation (empty = pass): schema mismatch,
/// geometry mismatch (vectors/seed — exact counters are only comparable at
/// equal geometry), coverage loss, exact-counter drift, and throughput
/// regressions beyond the tolerance.
[[nodiscard]] std::vector<std::string> check_bench_report(
    const BenchReport& current, const JsonValue& baseline,
    const BenchCheckConfig& cfg = {});

}  // namespace udsim
