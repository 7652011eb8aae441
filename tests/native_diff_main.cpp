// Standalone native-vs-IR differential harness, wired into ctest twice
// (label "native"): once as a plain pass on c880, and once with
// --inject-miscompare as a WILL_FAIL test proving the harness actually
// detects a native/IR divergence — a differential suite that cannot fail
// verifies nothing.
//
//   udsim_native_diff <circuit> [--vectors N] [--inject-miscompare]
//
// Exit codes: 0 = bit-identical, 1 = miscompare (details on stderr),
// 77 = skipped (no usable C compiler; ctest SKIP_RETURN_CODE).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/simulator.h"
#include "gen/iscas_profiles.h"

int main(int argc, char** argv) {
  using namespace udsim;
  std::string circuit = "c880";
  std::size_t vectors = 32;
  bool inject = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--inject-miscompare") == 0) {
      inject = true;
    } else if (std::strcmp(argv[i], "--vectors") == 0 && i + 1 < argc) {
      vectors = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else {
      circuit = argv[i];
    }
  }

  NativeOptions opts;
  opts.compile_flags = "-O0";
  opts.keep_source = true;  // a miscompare report points at the .c file
  if (!native_available(opts)) {
    std::fprintf(stderr, "skip: no usable C compiler (UDSIM_CC)\n");
    return 77;
  }

  const Netlist nl = make_iscas85_like(circuit, /*seed=*/1);
  SimPolicy policy;
  policy.chain = {EngineKind::Native};
  policy.native = opts;
  const auto native = make_simulator_with_fallback(nl, policy);
  auto ir = make_simulator(nl, EngineKind::ParallelCombined);

  const std::size_t pis = nl.primary_inputs().size();
  std::vector<Bit> row(pis);
  std::uint64_t x = 0x243f6a8885a308d3ull;
  std::size_t miscompares = 0;
  for (std::size_t v = 0; v < vectors; ++v) {
    for (Bit& b : row) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      b = static_cast<Bit>(x & 1);
    }
    native->step(row);
    ir->step(row);
    for (NetId po : nl.primary_outputs()) {
      Bit expected = ir->final_value(po);
      if (inject && v == vectors / 2 && po == nl.primary_outputs().front()) {
        expected = static_cast<Bit>(expected ^ 1);  // forced divergence
      }
      const Bit got = native->final_value(po);
      if (got != expected) {
        ++miscompares;
        std::fprintf(stderr,
                     "MISCOMPARE %s vector %zu net %u: native=%d ir=%d\n",
                     circuit.c_str(), v, po.value, int(got), int(expected));
      }
    }
  }
  if (miscompares != 0) {
    std::fprintf(stderr, "%zu miscompare(s); emitted source: %s\n",
                 miscompares, native->native_module()->source_path().c_str());
    return 1;
  }
  std::printf("%s: %zu vectors bit-identical (native %s)\n", circuit.c_str(),
              vectors, native->native_module()->from_cache() ? "cached" : "built");
  return 0;
}
