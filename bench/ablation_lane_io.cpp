// Ablation F: lane I/O. A lane-packed LCC or PC-set pass (DESIGN.md §5c)
// settles word_bits vectors, but BatchRunner must first transpose the lane
// group's input rows into one word per input and afterwards read every
// probe's lanes back out as rows. This harness splits a pass into the two
// parts: "batch" is one-thread BatchRunner::run over the whole workload,
// "program" is KernelRunner::run alone over input words packed outside the
// timed region. Both are reported in microseconds per pass (min / median /
// max over --trials), and their difference is the lane I/O.
//
// A second table covers the word lanes of the paper's parallel technique
// (ParallelCombined at 32 bits, DESIGN.md §5c): the program alone at one
// vector per pass (execute<uint32_t>) and at eight vectors per pass, one
// per word lane (execute<u32x8>), next to one-thread run_batch, all in
// microseconds per vector, with the 8-lane arena's size. It is the table
// that sets BatchRunner's lane-arena cap. Besides ISCAS profile names,
// --circuits takes `dagNk` (perfbench build's N-thousand-gate DAG shape)
// and `multN` (an N×N array multiplier); those join only this table, and
// run at most as many vectors as keep one trial near 10^9 ops.
//
//   ablation_lane_io [--vectors N] [--trials T] [--seed S] [--circuits a,b]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/batch_runner.h"
#include "core/simulator.h"
#include "core/width_dispatch.h"
#include "gen/arithmetic.h"
#include "gen/random_dag.h"
#include "harness/table.h"
#include "ir/wide_word.h"

namespace {

using namespace udsim;

struct Spread {
  double min = 0, median = 0, max = 0;
};

/// Microseconds per pass of `body` (which runs `passes` passes), per trial.
template <class Body>
Spread us_per_pass(Body&& body, std::size_t passes, int trials) {
  std::vector<double> us;
  for (int t = 0; t < trials; ++t) {
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const auto t1 = std::chrono::steady_clock::now();
    us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count() /
                 static_cast<double>(passes));
  }
  std::sort(us.begin(), us.end());
  return {us.front(), us[us.size() / 2], us.back()};
}

std::string fmt(const Spread& s) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.2f / %.2f / %.2f", s.min, s.median, s.max);
  return buf;
}

template <class Word>
Spread time_program(const Program& program, const bench::Workload& w,
                    int trials) {
  constexpr std::size_t kBits = sizeof(Word) * 8;
  constexpr std::size_t kU64 = kWordU64Lanes<Word>;
  const std::size_t passes = (w.vectors + kBits - 1) / kBits;
  std::vector<Word> in(w.inputs * passes);
  std::vector<std::uint64_t> lanes(kU64);
  for (std::size_t p = 0; p < passes; ++p) {
    for (std::size_t i = 0; i < w.inputs; ++i) {
      std::fill(lanes.begin(), lanes.end(), 0);
      for (std::size_t l = 0; l < kBits && p * kBits + l < w.vectors; ++l) {
        lanes[l / 64] |= std::uint64_t{w.bits[(p * kBits + l) * w.inputs + i] & 1u}
                         << (l % 64);
      }
      in[p * w.inputs + i] = word_from_u64_lanes<Word>(lanes.data());
    }
  }
  KernelRunner<Word> runner(program);
  return us_per_pass(
      [&] {
        for (std::size_t p = 0; p < passes; ++p) {
          runner.run(std::span<const Word>(in.data() + p * w.inputs, w.inputs));
        }
      },
      passes, trials);
}

Spread time_program_any(const Program& program, const bench::Workload& w,
                        int trials) {
  switch (program.word_bits) {
    case 64:
      return time_program<std::uint64_t>(program, w, trials);
#if UDSIM_HAS_W128
    case 128:
      return time_program<u128>(program, w, trials);
#endif
    case 256:
      return time_program<u256>(program, w, trials);
    default:
      return time_program<std::uint32_t>(program, w, trials);
  }
}

/// An ISCAS profile, `dagNk` or `multN` (see the header comment); sets
/// `generated` for the last two.
Netlist make_circuit(const std::string& name, std::uint64_t seed,
                     bool* generated) {
  *generated = true;
  if (name.rfind("dag", 0) == 0 && name.size() > 4 && name.back() == 'k') {
    RandomDagParams p;
    p.name = name;
    p.inputs = 256;
    p.outputs = 128;
    p.gates = std::stoul(name.substr(3, name.size() - 4)) * 1000;
    p.depth = 120;
    p.seed = seed;
    return random_dag(p);
  }
  if (name.rfind("mult", 0) == 0 && name.size() > 4) {
    const int bits = std::stoi(name.substr(4));
    return array_multiplier(bits, bits, name);
  }
  *generated = false;
  return make_iscas85_like(name, seed);
}

/// The program alone, µs per vector: `Word` = uint32_t runs one vector per
/// pass, u32x8 eight (vector 8p + k in word lane k of pass p). Input words
/// are built outside the timed region.
template <class Word>
Spread time_word_lanes(const Program& program, const bench::Workload& w,
                       int trials) {
  constexpr std::size_t L = kWordLanes<Word>;
  const std::size_t passes = (w.vectors + L - 1) / L;
  std::vector<Word> in(w.inputs * passes);
  for (std::size_t v = 0; v < w.vectors; ++v) {
    for (std::size_t i = 0; i < w.inputs; ++i) {
      const std::uint32_t bit = w.bits[v * w.inputs + i] & 1u;
      if constexpr (L > 1) {
        in[(v / L) * w.inputs + i].lane[v % L] = bit;
      } else {
        in[v * w.inputs + i] = bit;
      }
    }
  }
  KernelRunner<Word> runner(program);
  return us_per_pass(
      [&] {
        for (std::size_t p = 0; p < passes; ++p) {
          runner.run(std::span<const Word>(in.data() + p * w.inputs, w.inputs));
        }
      },
      w.vectors, trials);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace udsim;
  using namespace udsim::bench;
  const BenchArgs args = BenchArgs::parse(argc, argv);
  print_header("Ablation F", "lane I/O: run_batch pass vs program-only pass",
               args, "us per pass, min / median / max over trials, 1 thread");

  Table table({"circuit", "engine", "width", "batch us/pass", "program us/pass",
               "I/O share", "batch vec/s"});
  Table lanes({"circuit", "vectors", "lane arena KB", "word lanes",
               "1 lane us/vec", "8 lanes us/vec", "program gain",
               "run_batch us/vec"});
  for (const std::string& name : args.circuit_names()) {
    bool generated = false;
    const Netlist nl = make_circuit(name, args.seed, &generated);
    const Workload w(nl.primary_inputs().size(), args.vectors, args.seed + 100);
    for (EngineKind kind : {EngineKind::ZeroDelayLcc, EngineKind::PCSet}) {
      if (generated) break;
      for (int bits : supported_widths()) {
        const auto sim = make_simulator(nl, kind, {}, bits);
        const Program& program = *sim->compiled_program();
        BatchOptions one_thread;
        one_thread.num_threads = 1;
        BatchRunner batch(program, sim->output_probes(), one_thread);
        const std::size_t passes =
            (w.vectors + batch.lanes_per_pass() - 1) / batch.lanes_per_pass();
        const Spread run = us_per_pass(
            [&] { (void)batch.run(w.bits, w.vectors); }, passes, args.trials);
        const Spread prog = time_program_any(program, w, args.trials);
        const double io = 1.0 - prog.median / run.median;
        table.add_row({name, std::string(engine_name(kind)), std::to_string(bits),
                       fmt(run), fmt(prog), Table::num(100.0 * io, 0) + "%",
                       Table::num(batch.lanes_per_pass() / run.median * 1e6, 0)});
      }
    }

    const auto sim = make_simulator(nl, EngineKind::ParallelCombined, {}, 32);
    const Program& program = *sim->compiled_program();
    const std::size_t ops = std::max<std::size_t>(1, program.ops.size());
    const std::size_t n = std::min(
        args.vectors, std::max<std::size_t>(64, 1'000'000'000 / ops / 8 * 8));
    const Workload pw(nl.primary_inputs().size(), n, args.seed + 200);
    BatchOptions one_thread;
    one_thread.num_threads = 1;
    BatchRunner batch(program, sim->output_probes(), one_thread);
    const Spread run =
        us_per_pass([&] { (void)batch.run(pw.bits, n); }, n, args.trials);
    const Spread one = time_word_lanes<std::uint32_t>(program, pw, args.trials);
    std::string eight = "-", gain = "-";
    if (width_available(256)) {
      const Spread e = time_word_lanes<u32x8>(program, pw, args.trials);
      eight = fmt(e);
      gain = Table::num(one.median / e.median, 1) + "x";
    }
    lanes.add_row({name, std::to_string(n),
                   Table::num(static_cast<double>(program.arena_words) *
                                  sizeof(u32x8) / 1024.0, 0),
                   std::to_string(batch.word_lanes()), fmt(one), eight, gain,
                   fmt(run)});
  }
  table.print(std::cout);
  std::printf("\nParallelCombined at 32 bits: word lanes (us per vector, 1 thread)\n\n");
  lanes.print(std::cout);
  return 0;
}
