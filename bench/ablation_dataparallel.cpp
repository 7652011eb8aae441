// Ablation B: the PC-set method's data-parallel mode. Paper §3: "the PC-set
// method is amenable to bit-parallel simulation of multiple input vectors,
// while the parallel technique is not." One packed pass simulates 32
// independent vector streams; throughput is measured in vectors/second.
// Built on google-benchmark.
#include <benchmark/benchmark.h>

#include "core/kernel_runner.h"
#include "gen/iscas_profiles.h"
#include "harness/vectors.h"
#include "pcsim/pcset_sim.h"

namespace {

using namespace udsim;

void run_pcset(benchmark::State& state, const std::string& name, bool packed) {
  const Netlist nl = make_iscas85_like(name);
  const PCSetCompiled c = compile_pcset(nl);
  KernelRunner<std::uint32_t> runner(c.program);
  const std::size_t pis = nl.primary_inputs().size();
  constexpr std::size_t kBatches = 64;
  RandomVectorSource src(pis, 11);
  std::vector<std::uint32_t> in(pis * kBatches);
  for (std::size_t k = 0; k < kBatches; ++k) {
    src.next_packed(std::span<std::uint32_t>(in.data() + k * pis, pis),
                    packed ? 32u : 1u);
  }
  std::size_t k = 0;
  for (auto _ : state) {
    runner.run(std::span<const std::uint32_t>(in.data() + k * pis, pis));
    k = (k + 1) % kBatches;
  }
  // Vectors per pass: 32 lanes when packed, 1 otherwise.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          (packed ? 32 : 1));
}

void register_all() {
  for (const IscasProfile& p : iscas85_profiles()) {
    benchmark::RegisterBenchmark(
        ("pcset_scalar/" + p.name).c_str(),
        [n = p.name](benchmark::State& s) { run_pcset(s, n, false); });
    benchmark::RegisterBenchmark(
        ("pcset_packed32/" + p.name).c_str(),
        [n = p.name](benchmark::State& s) { run_pcset(s, n, true); });
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_all();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
