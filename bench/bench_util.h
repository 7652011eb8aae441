// Shared experiment-harness plumbing for the paper-table benchmarks.
//
// Every binary accepts:
//   --vectors N    input vectors per measurement (default 1000; paper: 5000)
//   --trials T     timing trials, median reported (default 3; paper: 5)
//   --seed S       workload seed
//   --circuits a,b comma-separated subset of the ISCAS-85 profile names
// Vector generation happens outside the timed region, matching the paper
// ("none of the execution times include the time required for reading
// vectors, printing output, or compiling circuit descriptions").
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/kernel_runner.h"
#include "eventsim/event_sim.h"
#include "gen/iscas_profiles.h"
#include "harness/timer.h"
#include "harness/vectors.h"
#include "netlist/netlist.h"

namespace udsim::bench {

struct BenchArgs {
  std::size_t vectors = 1000;
  int trials = 3;
  std::uint64_t seed = 1;
  std::vector<std::string> circuits;  // empty = all ten profiles

  static BenchArgs parse(int argc, char** argv) {
    BenchArgs a;
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
        a.vectors = static_cast<std::size_t>(std::strtoull(next(), nullptr, 10));
      } else if (arg == "--trials") {
        a.trials = std::atoi(next());
      } else if (arg == "--seed") {
        a.seed = std::strtoull(next(), nullptr, 10);
      } else if (arg == "--circuits") {
        std::string list = next();
        std::size_t pos = 0;
        while (pos != std::string::npos) {
          const std::size_t comma = list.find(',', pos);
          a.circuits.push_back(list.substr(
              pos, comma == std::string::npos ? comma : comma - pos));
          pos = comma == std::string::npos ? comma : comma + 1;
        }
      } else if (arg == "--help" || arg == "-h") {
        std::printf(
            "options: --vectors N  --trials T  --seed S  --circuits c432,c880\n");
        std::exit(0);
      }
    }
    return a;
  }

  [[nodiscard]] std::vector<std::string> circuit_names() const {
    if (!circuits.empty()) return circuits;
    std::vector<std::string> names;
    for (const IscasProfile& p : iscas85_profiles()) names.push_back(p.name);
    return names;
  }
};

/// Pre-generated scalar workload: `vectors` rows of one Bit per PI.
struct Workload {
  std::size_t inputs;
  std::size_t vectors;
  std::vector<Bit> bits;  // row-major

  Workload(std::size_t inputs_, std::size_t vectors_, std::uint64_t seed)
      : inputs(inputs_), vectors(vectors_), bits(inputs_ * vectors_) {
    RandomVectorSource src(inputs_, seed);
    for (std::size_t v = 0; v < vectors_; ++v) {
      src.next(std::span<Bit>(bits.data() + v * inputs_, inputs_));
    }
  }

  [[nodiscard]] std::span<const Bit> row(std::size_t v) const {
    return {bits.data() + v * inputs, inputs};
  }
};

/// Time an interpreted engine (anything with step(span<const Bit>)) over the
/// workload: median seconds across trials.
template <class Engine>
double time_interpreted(Engine& engine, const Workload& w, int trials) {
  return median_seconds(
      [&] {
        for (std::size_t v = 0; v < w.vectors; ++v) {
          engine.step(w.row(v));
        }
      },
      trials);
}

/// Time a compiled program: input words (bit 0 per PI) are prepared outside
/// the timed region; the timed loop is executor passes only.
template <class Word>
double time_compiled(const Program& program, const Workload& w, int trials) {
  KernelRunner<Word> runner(program);
  std::vector<Word> in(w.inputs * w.vectors);
  for (std::size_t v = 0; v < w.vectors; ++v) {
    for (std::size_t i = 0; i < w.inputs; ++i) {
      in[v * w.inputs + i] = w.bits[v * w.inputs + i];
    }
  }
  return median_seconds(
      [&] {
        for (std::size_t v = 0; v < w.vectors; ++v) {
          runner.run(std::span<const Word>(in.data() + v * w.inputs, w.inputs));
        }
      },
      trials);
}

/// Per-vector microseconds, the unit used in all printed tables.
[[nodiscard]] inline double us_per_vec(double seconds, std::size_t vectors) {
  return 1e6 * seconds / static_cast<double>(vectors);
}

/// The paper's published measurements (seconds for 5000 vectors on a SUN
/// 3/260), used to print reference ratios beside ours. Figs. 19/20/23/24.
struct PaperRow {
  const char* name;
  double interp3;   // Fig. 19 col 1
  double interp2;   // Fig. 19 col 2
  double pcset;     // Fig. 19 col 3
  double parallel;  // Fig. 19 col 4
  double trimmed;   // Fig. 20 col 3
  double path_tracing;  // Fig. 23 col 2 / Fig. 24 col 2
  double cycle_breaking;  // Fig. 23 col 3 (0 = not reported)
  double combined;  // Fig. 24 col 3
};

inline const PaperRow* paper_row(const std::string& name) {
  static const PaperRow rows[] = {
      {"c432", 46.4, 41.2, 9.9, 3.4, 3.3, 2.4, 0, 2.4},
      {"c499", 51.1, 44.3, 5.2, 4.4, 4.4, 2.9, 0, 2.9},
      {"c880", 87.1, 78.1, 22.4, 8.1, 8.1, 4.9, 0, 5.0},
      {"c1355", 177.2, 157.7, 84.9, 9.8, 11.6, 7.4, 0, 7.4},
      {"c1908", 330.2, 295.9, 162.7, 54.3, 37.0, 21.9, 0, 18.1},
      {"c2670", 368.2, 346.1, 89.9, 90.7, 64.8, 14.4, 0, 14.1},
      {"c3540", 531.1, 479.1, 211.6, 122.2, 97.7, 68.9, 0, 58.4},
      {"c5315", 1024.0, 894.7, 245.2, 176.0, 137.1, 108.0, 0, 91.4},
      {"c6288", 9555.9, 8918.3, 1757.3, 369.3, 266.8, 240.1, 0, 196.9},
      {"c7552", 1483.2, 1348.5, 395.2, 269.7, 205.5, 160.4, 0, 133.4},
  };
  for (const PaperRow& r : rows) {
    if (name == r.name) return &r;
  }
  return nullptr;
}

inline void print_header(const char* fig, const char* what, const BenchArgs& a,
                         const char* unit = "times in microseconds per vector") {
  std::printf("=== %s: %s ===\n", fig, what);
  std::printf("(%zu vectors/run, median of %d trials, seed %llu; %s)\n\n",
              a.vectors, a.trials, static_cast<unsigned long long>(a.seed), unit);
}

}  // namespace udsim::bench
