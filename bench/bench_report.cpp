// Bench-regression driver: the one binary that seeds the bench trajectory.
//
// Runs every requested circuit through {zero-delay LCC, PC-set,
// parallel-combined} sequentially plus parallel-combined sharded across
// --threads workers, and writes one schema-versioned JSON document
// (BENCH_results.json) with throughput and the exact counters per row.
//
//   bench_report [--vectors N] [--trials T] [--seed S] [--circuits a,b]
//                [--threads N] [--out PATH] [--no-native]
//                [--check BASELINE.json] [--max-regression-pct P]
//                [--no-throughput-check] [--inject-drift]
//
// --check compares against a committed baseline and exits non-zero on any
// exact-counter drift or a throughput regression beyond the tolerance
// (default 25%; wall clocks are noisy, counters are not). --inject-drift
// perturbs one exact counter after collection — the ctest drift smoke test
// uses it to prove the gate actually fails.
//
// Native rows: the driver also measures EngineKind::Native (the dlopen
// backend) per circuit, and prints the ir-vs-native throughput ratio — the
// interpreter tax. The row is simply absent on machines without a usable C
// compiler; --no-native skips it explicitly. Extra rows never trip --check:
// the baseline's rows are what is compared.
//
// Width rows: per circuit, zero-delay LCC is also measured at every other
// available lane width. run_batch packs one vector per word bit into each
// LCC pass (DESIGN.md §5c), so these rows show the 128/256-bit executors'
// throughput win over 64-bit. Widths this build/CPU cannot run are skipped,
// and --check reports the coverage loss when the baseline had them.
//
// Circuits accept ISCAS-85 profile names and .bench files (data/c17.bench
// loads as "c17").
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "../examples/common.h"
#include "obs/bench_report.h"
#include "obs/json.h"

int main(int argc, char** argv) {
  using namespace udsim;
  BenchRunConfig cfg;
  cfg.vectors = 256;
  cfg.trials = 3;
  cfg.with_native = true;
  std::vector<std::string> circuit_names;
  std::string out_path = "BENCH_results.json";
  std::string check_path;
  BenchCheckConfig check_cfg;
  bool inject_drift = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--vectors") {
      cfg.vectors = static_cast<std::size_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--trials") {
      cfg.trials = std::atoi(next());
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--threads") {
      cfg.batch_threads = static_cast<unsigned>(std::atoi(next()));
    } else if (arg == "--circuits") {
      std::string list = next();
      std::size_t pos = 0;
      while (pos != std::string::npos) {
        const std::size_t comma = list.find(',', pos);
        circuit_names.push_back(
            list.substr(pos, comma == std::string::npos ? comma : comma - pos));
        pos = comma == std::string::npos ? comma : comma + 1;
      }
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--check") {
      check_path = next();
    } else if (arg == "--max-regression-pct") {
      check_cfg.max_regression_pct = std::atof(next());
    } else if (arg == "--no-throughput-check") {
      check_cfg.check_throughput = false;
    } else if (arg == "--inject-drift") {
      inject_drift = true;
    } else if (arg == "--no-native") {
      cfg.with_native = false;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "bench_report [--vectors N] [--trials T] [--seed S] "
          "[--circuits a,b] [--threads N] [--out PATH] [--no-native] "
          "[--check BASELINE] [--max-regression-pct P] "
          "[--no-throughput-check] [--inject-drift]\n");
      return 0;
    } else {
      std::fprintf(stderr, "unknown option %s (try --help)\n", arg.c_str());
      return 2;
    }
  }
  if (circuit_names.empty()) {
    for (const IscasProfile& p : iscas85_profiles()) {
      circuit_names.push_back(p.name);
    }
  }

  std::vector<Netlist> storage;
  storage.reserve(circuit_names.size());
  std::vector<std::pair<std::string, const Netlist*>> circuits;
  for (const std::string& name : circuit_names) {
    storage.push_back(examples::load_circuit(name, cfg.seed));
    circuits.emplace_back(name, &storage.back());
  }

  BenchReport report = run_bench_report(circuits, cfg);
  if (inject_drift && !report.circuits.empty() &&
      !report.circuits.front().engines.empty()) {
    auto& exact = report.circuits.front().engines.front().exact;
    if (!exact.empty()) exact.begin()->second += 1;
    std::fprintf(stderr, "note: --inject-drift perturbed one exact counter\n");
  }

  const std::string json = report.to_json();
  {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
      return 2;
    }
    out << json << "\n";
  }
  std::printf("%zu circuit(s) x %zu engine row(s) -> %s\n",
              report.circuits.size(),
              report.circuits.empty() ? 0 : report.circuits.front().engines.size(),
              out_path.c_str());

  // The interpreter tax: native vs IR throughput of the same combined
  // program, per circuit (both rows single-threaded).
  for (const BenchCircuitResult& c : report.circuits) {
    const BenchEngineResult* ir = nullptr;
    const BenchEngineResult* native = nullptr;
    for (const BenchEngineResult& e : c.engines) {
      if (e.threads != 1) continue;
      if (e.engine == "parallel-combined") ir = &e;
      if (e.engine == "native") native = &e;
    }
    if (ir && native && ir->vectors_per_sec > 0.0) {
      std::printf("  %-8s ir %.0f vec/s, native %.0f vec/s (%.2fx)\n",
                  c.circuit.c_str(), ir->vectors_per_sec,
                  native->vectors_per_sec,
                  native->vectors_per_sec / ir->vectors_per_sec);
    }
  }

  // The width ladder: LCC throughput per lane width, per circuit —
  // vectors/pass scales with word_bits, so the wide rows should win.
  for (const BenchCircuitResult& c : report.circuits) {
    std::string line;
    char buf[64];
    for (const BenchEngineResult& e : c.engines) {
      if (e.engine != "zero-delay-lcc" || e.threads != 1) continue;
      std::snprintf(buf, sizeof buf, "  w%-3d %.0f vec/s", e.word_bits,
                    e.vectors_per_sec);
      line += buf;
    }
    if (!line.empty()) {
      std::printf("  %-8s lcc:%s\n", c.circuit.c_str(), line.c_str());
    }
  }

  if (check_path.empty()) return 0;

  std::ifstream base_in(check_path);
  if (!base_in) {
    std::fprintf(stderr, "cannot read baseline %s\n", check_path.c_str());
    return 2;
  }
  std::stringstream buf;
  buf << base_in.rdbuf();
  JsonValue baseline;
  try {
    baseline = JsonValue::parse(buf.str());
  } catch (const JsonParseError& e) {
    std::fprintf(stderr, "baseline %s: %s\n", check_path.c_str(), e.what());
    return 2;
  }
  const std::vector<std::string> violations =
      check_bench_report(report, baseline, check_cfg);
  if (violations.empty()) {
    std::printf("check vs %s: PASS\n", check_path.c_str());
    return 0;
  }
  std::fprintf(stderr, "check vs %s: FAIL (%zu violation(s))\n",
               check_path.c_str(), violations.size());
  for (const std::string& v : violations) {
    std::fprintf(stderr, "  %s\n", v.c_str());
  }
  return 1;
}
