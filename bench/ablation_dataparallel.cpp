// Ablation B: the PC-set method's data-parallel mode. Paper §3: "the PC-set
// method is amenable to bit-parallel simulation of multiple input vectors,
// while the parallel technique is not." One packed pass simulates 32
// independent vectors, one per bit lane; throughput is measured in
// vectors/second at 1 lane and at 32 lanes over the same workload.
#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "harness/table.h"
#include "pcsim/pcset_sim.h"

namespace {

using namespace udsim;

constexpr std::size_t kLanes = 32;

/// Time ceil(vectors / 32) passes, vector p * 32 + l in lane l of pass p.
double time_packed32(const Program& program, const bench::Workload& w,
                     int trials) {
  KernelRunner<std::uint32_t> runner(program);
  const std::size_t passes = (w.vectors + kLanes - 1) / kLanes;
  std::vector<std::uint32_t> in(w.inputs * passes, 0);
  for (std::size_t v = 0; v < w.vectors; ++v) {
    for (std::size_t i = 0; i < w.inputs; ++i) {
      in[(v / kLanes) * w.inputs + i] |=
          std::uint32_t{w.bits[v * w.inputs + i]} << (v % kLanes);
    }
  }
  return median_seconds(
      [&] {
        for (std::size_t p = 0; p < passes; ++p) {
          runner.run(std::span<const std::uint32_t>(in.data() + p * w.inputs,
                                                    w.inputs));
        }
      },
      trials);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace udsim;
  using namespace udsim::bench;
  const BenchArgs args = BenchArgs::parse(argc, argv);
  print_header("Ablation B", "PC-set method, 1 vs 32 vectors per pass", args,
               "throughput in vectors per second");

  Table table({"circuit", "ops", "1-lane vec/s", "32-lane vec/s", "32/1"});
  for (const std::string& name : args.circuit_names()) {
    const Netlist nl = make_iscas85_like(name, args.seed);
    const Workload w(nl.primary_inputs().size(), args.vectors, args.seed + 100);
    const PCSetCompiled c = compile_pcset(nl);
    const auto n = static_cast<double>(w.vectors);
    const double vps1 =
        n / time_compiled<std::uint32_t>(c.program, w, args.trials);
    const double vps32 = n / time_packed32(c.program, w, args.trials);
    table.add_row({name, std::to_string(c.program.ops.size()), Table::num(vps1, 0),
                   Table::num(vps32, 0), Table::num(vps32 / vps1, 1)});
  }
  table.print(std::cout);
  return 0;
}
