// Ablation I: compile time per phase against circuit size. Compiles the
// default engine (ParallelCombined: path tracing + trimming, 32-bit words)
// over array multipliers and leveled random DAGs of growing size and reads
// each phase's time from the compiler's own compile.* trace spans. The
// phases partition the compile: levelize (levels and the topological gate
// order), alignment (path tracing + legality check), trim (field widths and
// trim plan), pcset (the raw PC-sets the trim plan reads), emit (the
// straight-line program) and schedule (run ordering, the `schedule_ns` arg
// of the emit span). Prints min / median / max milliseconds over --trials
// per phase, then the medians as a curve of gates against time.
//
//   ablation_compile_scale [--mult 16,32,64,128] [--dag 10000,40000,400000]
//                          [--trials T]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "gen/arithmetic.h"
#include "gen/random_dag.h"
#include "harness/table.h"
#include "obs/metrics.h"
#include "parsim/parallel_sim.h"

namespace {

using namespace udsim;

constexpr const char* kPhases[] = {"levelize", "alignment", "trim", "pcset",
                                   "emit",     "schedule",  "total"};
constexpr std::size_t kPhaseCount = std::size(kPhases);

struct Args {
  std::vector<int> mult_bits{16, 32, 64, 128};
  std::vector<int> dag_gates{10000, 40000, 400000};
  int trials = 3;
};

/// "a,b,c" -> {a, b, c}; "" -> {} (skips that family of circuits).
std::vector<int> parse_list(const std::string& s) {
  std::vector<int> out;
  for (std::size_t pos = 0; pos < s.size();) {
    const std::size_t comma = s.find(',', pos);
    out.push_back(std::atoi(s.substr(pos, comma - pos).c_str()));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "usage: ablation_compile_scale [--mult a,b] [--dag a,b] "
                           "[--trials T]\n");
      std::exit(2);
    }
    if (arg == "--mult") {
      a.mult_bits = parse_list(argv[++i]);
    } else if (arg == "--dag") {
      a.dag_gates = parse_list(argv[++i]);
    } else if (arg == "--trials") {
      a.trials = std::max(1, std::atoi(argv[++i]));
    } else {
      ++i;  // the shared bench flags (--vectors, --seed, ...) do not apply
    }
  }
  return a;
}

/// perfbench `build`'s DAG shape at `gates` gates.
Netlist dag(int gates) {
  RandomDagParams p;
  p.name = "dag" + (gates % 1000 ? std::to_string(gates) : std::to_string(gates / 1000) + "k");
  p.inputs = 256;
  p.outputs = 128;
  p.gates = static_cast<std::size_t>(gates);
  p.depth = 120;
  p.seed = 1;
  return random_dag(p);
}

/// Milliseconds per phase of one traced ParallelCombined compile.
std::vector<double> compile_phases(const Netlist& nl) {
  MetricsRegistry reg;
  ParallelOptions options;
  options.trimming = true;
  options.shift_elim = ShiftElim::PathTracing;
  const CompileGuard guard{CompileBudget{}, nullptr, &reg};
  (void)compile_parallel(nl, options, guard);
  const auto ms = [&](const char* span) {
    return static_cast<double>(reg.counter(std::string("compile.") + span + ".ns").value()) /
           1e6;
  };
  double schedule = 0;
  for (const TraceEvent& e : reg.trace_events()) {
    if (e.name != "compile.emit") continue;
    for (const auto& [key, value] : e.args) {
      if (key == "schedule_ns") schedule = static_cast<double>(value) / 1e6;
    }
  }
  const double pcset = ms("pcset");
  return {ms("levelize"), ms("alignment"), ms("trimming") - pcset, pcset,
          ms("emit") - schedule, schedule, ms("total")};
}

std::string spread(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  char buf[96];
  std::snprintf(buf, sizeof buf, "%.2f / %.2f / %.2f", v.front(), v[v.size() / 2],
                v.back());
  return buf;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  std::printf("== Ablation I: compile time per phase vs circuit size ==\n"
              "ParallelCombined (path tracing + trimming), w32, %d trial(s); "
              "ms min / median / max\n\n",
              args.trials);

  std::vector<Netlist> circuits;
  for (int bits : args.mult_bits) {
    circuits.push_back(array_multiplier(bits, bits, "mult" + std::to_string(bits)));
  }
  for (int gates : args.dag_gates) circuits.push_back(dag(gates));

  Table detail({"circuit", "gates", "phase", "ms min / median / max", "share"});
  std::vector<std::string> curve_head{"circuit", "gates"};
  for (const char* p : kPhases) curve_head.emplace_back(p);
  curve_head.emplace_back("largest");
  Table curve(curve_head);
  for (const Netlist& nl : circuits) {
    std::vector<std::vector<double>> t(kPhaseCount);
    for (int trial = 0; trial < args.trials; ++trial) {
      const std::vector<double> ms = compile_phases(nl);
      for (std::size_t i = 0; i < kPhaseCount; ++i) t[i].push_back(ms[i]);
    }
    const std::string gates = std::to_string(nl.gate_count());
    const double total = median(t[kPhaseCount - 1]);
    std::vector<std::string> row{nl.name(), gates};
    std::size_t largest = 0;
    for (std::size_t i = 0; i < kPhaseCount; ++i) {
      const double med = median(t[i]);
      detail.add_row({nl.name(), gates, kPhases[i], spread(t[i]),
                      Table::num(100.0 * med / total, 0) + "%"});
      row.push_back(Table::num(med, 2));
      if (i + 1 < kPhaseCount && med > median(t[largest])) largest = i;
    }
    row.emplace_back(kPhases[largest]);
    curve.add_row(std::move(row));
  }
  detail.print(std::cout);
  std::printf("\nmedian ms per phase (the curve of gates against time):\n");
  curve.print(std::cout);
  return 0;
}
