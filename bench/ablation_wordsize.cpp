// Ablation A: host word size for the parallel technique. The paper's cost
// model says the number of words per bit-field drives runtime ("if the
// width of the bit-field expanded from 32 bits to 33, the amount of
// simulation time could more than double"); 64-bit words halve the word
// count of deep circuits. Reports vectors/second for the unoptimized
// parallel program compiled at w32 and at w64.
#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "harness/table.h"
#include "parsim/parallel_sim.h"

int main(int argc, char** argv) {
  using namespace udsim;
  using namespace udsim::bench;
  const BenchArgs args = BenchArgs::parse(argc, argv);
  print_header("Ablation A", "parallel technique, 32- vs 64-bit words", args,
               "throughput in vectors per second");

  Table table({"circuit", "words32", "words64", "ops32", "ops64", "w32 vec/s",
               "w64 vec/s", "w64/w32"});
  for (const std::string& name : args.circuit_names()) {
    const Netlist nl = make_iscas85_like(name, args.seed);
    const Workload w(nl.primary_inputs().size(), args.vectors, args.seed + 100);
    ParallelOptions o;
    o.word_bits = 32;
    const ParallelCompiled c32 = compile_parallel(nl, o);
    o.word_bits = 64;
    const ParallelCompiled c64 = compile_parallel(nl, o);
    const auto n = static_cast<double>(w.vectors);
    const double vps32 =
        n / time_compiled<std::uint32_t>(c32.program, w, args.trials);
    const double vps64 =
        n / time_compiled<std::uint64_t>(c64.program, w, args.trials);
    table.add_row({name, std::to_string(c32.stats.field_words_max),
                   std::to_string(c64.stats.field_words_max),
                   std::to_string(c32.program.ops.size()),
                   std::to_string(c64.program.ops.size()), Table::num(vps32, 0),
                   Table::num(vps64, 0), Table::num(vps64 / vps32, 2)});
  }
  table.print(std::cout);
  std::printf("\nwords = widest bit-field in words; ops = program size\n");
  return 0;
}
