// Standalone lane-width probe (DESIGN.md §5j), the ctest leg that covers
// what an in-process gtest cannot promise on arbitrary hardware:
//
//   width_probe <bits>    — dispatch at <bits>, run c432 at that width and
//                           diff the rows against the 32-bit run. Exit 77
//                           (ctest SKIP_RETURN_CODE) when this build/CPU
//                           genuinely lacks the lane.
//   width_probe fallback  — verify a genuine *hardware* step-down: request
//                           the widest compiled lane on a machine that
//                           cannot run it and require the WidthFallback
//                           diagnostic. Exit 77 on machines where every
//                           compiled lane is executable (nothing to
//                           observe).
//
// Exit 0 = verified, 1 = divergence/missing diagnostic, 2 = usage.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/simulator.h"
#include "core/width_dispatch.h"
#include "gen/iscas_profiles.h"
#include "harness/vectors.h"
#include "ir/program.h"
#include "netlist/diagnostics.h"

namespace {

std::vector<udsim::Bit> run_rows(const udsim::Netlist& nl, int word_bits,
                                 std::size_t vectors) {
  using namespace udsim;
  RandomVectorSource src(nl.primary_inputs().size(), 0xbeef);
  const std::size_t pis = nl.primary_inputs().size();
  std::vector<Bit> flat(vectors * pis);
  for (std::size_t v = 0; v < vectors; ++v) {
    src.next(std::span<Bit>(flat.data() + v * pis, pis));
  }
  const auto sim = make_simulator(nl, EngineKind::ZeroDelayLcc, {}, word_bits);
  if (sim->compiled_program()->word_bits != word_bits) {
    std::fprintf(stderr, "requested %d-bit lanes, dispatched %d\n", word_bits,
                 sim->compiled_program()->word_bits);
    std::exit(1);
  }
  return sim->run_batch(flat, 1).values;
}

int probe_width(int bits) {
  using namespace udsim;
  if (!width_available(bits)) {
    std::fprintf(stderr,
                 "skip: %d-bit lane unavailable on this build/CPU "
                 "(compiled=%d)\n",
                 bits, width_compiled(bits) ? 1 : 0);
    return 77;
  }
  ::unsetenv("UDSIM_FORCE_WIDTH");
  const Netlist nl = make_iscas85_like("c432");
  constexpr std::size_t kVectors = 24;
  const std::vector<Bit> wide = run_rows(nl, bits, kVectors);
  const std::vector<Bit> narrow = run_rows(nl, 32, kVectors);
  if (wide != narrow) {
    std::fprintf(stderr, "FAIL: %d-bit rows diverge from the 32-bit oracle\n",
                 bits);
    return 1;
  }
  std::printf("ok: c432 × %zu vectors bit-identical at %d-bit lanes\n",
              kVectors, bits);
  return 0;
}

int probe_fallback() {
  using namespace udsim;
  ::unsetenv("UDSIM_FORCE_WIDTH");
  // Find a compiled lane the CPU cannot execute (e.g. a -mavx2 build on a
  // non-AVX2 machine). When every compiled lane runs, there is no genuine
  // hardware fallback to observe — the gtest suite covers the synthetic
  // (unknown-width) ladder instead.
  int blocked = 0;
  for (int bits : {128, 256}) {
    if (width_compiled(bits) && !width_available(bits)) blocked = bits;
  }
  if (blocked == 0) {
    std::fprintf(stderr,
                 "skip: every compiled lane is executable on this CPU; no "
                 "hardware fallback to observe\n");
    return 77;
  }
  Diagnostics diag;
  const WidthChoice c = dispatch_width(blocked, &diag);
  if (!c.fell_back || c.word_bits >= blocked) {
    std::fprintf(stderr, "FAIL: %d-bit request did not step down (got %d)\n",
                 blocked, c.word_bits);
    return 1;
  }
  if (!diag.has(DiagCode::WidthFallback)) {
    std::fprintf(stderr, "FAIL: fallback produced no WidthFallback record\n");
    return 1;
  }
  std::printf("ok: %d-bit request stepped down to %d with a diagnostic\n",
              blocked, c.word_bits);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: width_probe <bits>|fallback\n");
    return 2;
  }
  if (std::strcmp(argv[1], "fallback") == 0) return probe_fallback();
  const int bits = std::atoi(argv[1]);
  if (bits <= 0) {
    std::fprintf(stderr, "usage: width_probe <bits>|fallback\n");
    return 2;
  }
  return probe_width(bits);
}
