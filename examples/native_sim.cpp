// Walkthrough: the native-code backend end to end (DESIGN.md §5h).
//
//   native_sim [circuit] [vectors]         (default: c6288, 2000 vectors)
//
// Builds EngineKind::Native through the facade — the combined parallel
// program, emitted as C, compiled by the system C compiler ($UDSIM_CC,
// default `cc`) and dlopened — and runs the same vector stream through the
// in-process IR executor, through the native engine's batch path (the same
// sharded BatchRunner, with the dlopen'd kernel doing each pass), and
// through the module's whole-stream entry (one call, final state only).
// Then prints the throughputs and the counters the metrics registry
// collected (native.builds / cache hit or miss / native.compile span / the
// shared exec.* set).
//
// On a machine without a usable C compiler the example degrades gracefully:
// it reports the structured NativeError and runs the IR engine alone.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common.h"
#include "core/simulator.h"

int main(int argc, char** argv) {
  using namespace udsim;
  const std::string circuit = argc > 1 ? argv[1] : "c6288";
  const std::size_t vectors =
      argc > 2 ? static_cast<std::size_t>(std::strtoull(argv[2], nullptr, 10))
               : 2000;

  const Netlist nl = examples::load_circuit(circuit);
  const std::size_t pis = nl.primary_inputs().size();
  const std::vector<Bit> stream = examples::xorshift_stream(vectors, pis);
  std::printf("%s: %zu gates, %zu inputs, %zu vectors\n", circuit.c_str(),
              nl.gate_count(), pis, vectors);

  const auto throughput = [&](Simulator& sim) {
    const auto t0 = std::chrono::steady_clock::now();
    (void)sim.run_batch(stream, /*num_threads=*/1);
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    return dt.count() > 0.0 ? static_cast<double>(vectors) / dt.count() : 0.0;
  };

  MetricsRegistry reg;

  // IR leg: the interpreted executor over the same combined program.
  auto ir = make_simulator(nl, EngineKind::ParallelCombined);
  const double ir_vps = throughput(*ir);
  std::printf("  ir (parallel-combined):  %10.0f vec/s\n", ir_vps);

  // Native leg, behind the same facade: a chain of only the native engine,
  // so a toolchain failure surfaces here instead of falling back.
  SimPolicy policy;
  policy.chain = {EngineKind::Native};
  policy.metrics = &reg;  // native.* build counters + runtime exec.*
  // policy.native: $UDSIM_CC / $UDSIM_CC_FLAGS / $UDSIM_NATIVE_CACHE
  try {
    auto native = make_simulator_with_fallback(nl, policy);
    const double native_vps = throughput(*native);
    native->set_metrics(nullptr);
    std::printf("  native (dlopen):         %10.0f vec/s", native_vps);
    if (ir_vps > 0.0 && native_vps > 0.0) {
      std::printf("   (%.2fx the interpreter)", native_vps / ir_vps);
    }

    // Whole-stream leg: the module's udsim_kernel_run over the stream in
    // one call — no per-vector output sampling, so not a batch.
    const NativeModule& mod = *native->native_module();
    const std::vector<std::uint32_t> words(stream.begin(), stream.end());
    std::vector<std::uint32_t> arena(native->compiled_program()->arena_words);
    mod.init(arena.data());
    const auto t0 = std::chrono::steady_clock::now();
    mod.run(arena.data(), words.data(), vectors);
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    std::printf("\n  native whole-stream run: %10.0f vec/s\n",
                dt.count() > 0.0 ? static_cast<double>(vectors) / dt.count()
                                 : 0.0);
    std::printf("  shared object: %s%s\n", mod.so_path().c_str(),
                mod.from_cache() ? " (cache hit)" : " (built)");
  } catch (const NativeError& e) {
    std::printf("  native backend unavailable (%s stage): %s\n",
                std::string(native_stage_name(e.stage())).c_str(), e.what());
  }

  std::printf("\nmetrics registry:\n");
  for (const auto& [name, value] : reg.snapshot()) {
    std::printf("  %-32s %llu\n", name.c_str(),
                static_cast<unsigned long long>(value));
  }
  return 0;
}
