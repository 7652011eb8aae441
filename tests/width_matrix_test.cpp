// Cross-width differential matrix (DESIGN.md §5j) — the lockdown for the
// SIMD-wide executors: every ISCAS-85 profile × production compiled engine
// × dispatched lane width must be bit-identical to the interpreted oracle
// (and hence to the historical 32-bit path), with the exact-counter
// invariant exec.ops == compile.ops × exec.passes holding at every width.
// run_batch packs the LCC and PC-set programs word_bits vectors per pass;
// those rows must equal the scalar ones — lane independence at every width.
#include <gtest/gtest.h>

#include <cstdlib>
#include <span>
#include <vector>

#include "core/kernel_runner.h"
#include "core/simulator.h"
#include "core/width_dispatch.h"
#include "gen/iscas_profiles.h"
#include "harness/vectors.h"
#include "ir/program.h"
#include "ir/wide_word.h"
#include "lcc/lcc.h"
#include "obs/metrics.h"
#include "oracle/oracle.h"

namespace udsim {
namespace {

constexpr EngineKind kCompiledEngines[] = {
    EngineKind::ZeroDelayLcc, EngineKind::PCSet, EngineKind::ParallelCombined};

/// Executor passes a batch of `vectors` takes: one per lane group for the
/// lane-packed LCC and PC-set programs, one per vector otherwise.
std::uint64_t expected_passes(EngineKind kind, std::size_t vectors, int w) {
  const std::size_t lanes =
      kind == EngineKind::ParallelCombined ? 1 : static_cast<std::size_t>(w);
  return (vectors + lanes - 1) / lanes;
}

std::vector<Bit> make_stream(const Netlist& nl, std::size_t count,
                             std::uint64_t seed) {
  RandomVectorSource src(nl.primary_inputs().size(), seed);
  std::vector<Bit> flat(count * nl.primary_inputs().size());
  const std::size_t pis = nl.primary_inputs().size();
  for (std::size_t v = 0; v < count; ++v) {
    src.next(std::span<Bit>(flat.data() + v * pis, pis));
  }
  return flat;
}

/// Oracle settled outputs for the stream, row-major (the same layout
/// BatchResult::values uses).
std::vector<Bit> oracle_rows(const Netlist& nl, std::span<const Bit> flat,
                             std::size_t count) {
  OracleSim oracle(nl);
  const std::size_t pis = nl.primary_inputs().size();
  std::vector<Bit> rows;
  rows.reserve(count * nl.primary_outputs().size());
  for (std::size_t v = 0; v < count; ++v) {
    const Waveform wf = oracle.step(flat.subspan(v * pis, pis));
    for (NetId po : nl.primary_outputs()) rows.push_back(wf.final_value(po));
  }
  return rows;
}

class WidthMatrixTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override { ::unsetenv("UDSIM_FORCE_WIDTH"); }
};

TEST_P(WidthMatrixTest, EveryEngineAndWidthMatchesTheOracle) {
  constexpr std::size_t kVectors = 8;
  const Netlist nl = make_iscas85_like(GetParam());
  const std::vector<Bit> flat = make_stream(nl, kVectors, 0xa5a5ull);
  const std::vector<Bit> expect = oracle_rows(nl, flat, kVectors);

  for (int w : supported_widths()) {
    for (EngineKind kind : kCompiledEngines) {
      MetricsRegistry reg;
      const CompileGuard guard{CompileBudget{}, nullptr, &reg};
      const auto sim = make_simulator(nl, kind, guard, w);
      ASSERT_NE(sim->compiled_program(), nullptr);
      ASSERT_EQ(sim->compiled_program()->word_bits, w)
          << engine_name(kind) << " did not dispatch at " << w << " bits";

      const BatchResult r = sim->run_batch(flat, 1);
      ASSERT_EQ(r.values, expect)
          << GetParam() << " × " << engine_name(kind) << " × " << w
          << "-bit lanes diverges from the oracle";

      // The counters stay exact at every width: a straight-line program
      // executes every op on every pass, whatever the lane width.
      const auto snap = reg.snapshot();
      ASSERT_TRUE(snap.contains("compile.ops"));
      EXPECT_EQ(snap.at("sim.vectors"), kVectors)
          << engine_name(kind) << " @ " << w;
      EXPECT_EQ(snap.at("exec.passes"), expected_passes(kind, kVectors, w))
          << engine_name(kind) << " @ " << w;
      EXPECT_EQ(snap.at("exec.ops"), snap.at("compile.ops") * snap.at("exec.passes"))
          << engine_name(kind) << " @ " << w;
      EXPECT_EQ(snap.at("dispatch.width"), static_cast<std::uint64_t>(w));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllIscas85, WidthMatrixTest,
                         ::testing::Values("c432", "c499", "c880", "c1355",
                                           "c1908", "c2670", "c3540", "c5315",
                                           "c6288", "c7552"),
                         [](const auto& info) { return info.param; });

TEST(WidthMatrix, WideBatchIsThreadCountInvariant) {
  // Seam replay at wide words: the sharded batch layer must reproduce the
  // sequential rows for every thread count at every width (the seam pass
  // reconstructs retained state in the wide arena).
  ::unsetenv("UDSIM_FORCE_WIDTH");
  constexpr std::size_t kVectors = 70;  // several shards at min_chunk 16
  const Netlist nl = make_iscas85_like("c880");
  const std::vector<Bit> flat = make_stream(nl, kVectors, 0x5151ull);
  for (int w : supported_widths()) {
    const auto sim = make_simulator(nl, EngineKind::ParallelCombined, {}, w);
    const BatchResult seq = sim->run_batch(flat, 1);
    for (unsigned threads : {2u, 4u}) {
      const BatchResult par = sim->run_batch(flat, threads);
      EXPECT_EQ(par.values, seq.values)
          << w << "-bit lanes, " << threads << " threads";
    }
  }
}

TEST(WidthMatrix, PackedRunnerMatchesScalarRowsAtEveryWidth) {
  // Lane independence: run_batch settles word_bits concurrent vectors per
  // LCC / PC-set pass, and the rows equal the ones the scalar step() path
  // produces one vector at a time (and the oracle's).
  ::unsetenv("UDSIM_FORCE_WIDTH");
  for (const char* name : {"c432", "c880", "c1355"}) {
    const Netlist nl = make_iscas85_like(name);
    // Deliberately not a multiple of any lane count: the tail pass runs
    // partially filled.
    constexpr std::size_t kVectors = 70;
    const std::vector<Bit> flat = make_stream(nl, kVectors, 0x77ull);
    const std::vector<Bit> expect = oracle_rows(nl, flat, kVectors);
    const std::size_t pis = nl.primary_inputs().size();
    for (int w : supported_widths()) {
      for (EngineKind kind : {EngineKind::ZeroDelayLcc, EngineKind::PCSet}) {
        MetricsRegistry reg;
        const auto sim = make_simulator(nl, kind, {}, w);
        sim->set_metrics(&reg);
        const BatchResult r = sim->run_batch(flat, 1);
        EXPECT_EQ(r.vectors, kVectors);
        EXPECT_EQ(reg.counter("exec.passes").value(),
                  expected_passes(kind, kVectors, w))
            << "one pass settles word_bits vectors";
        EXPECT_EQ(reg.counter("sim.vectors").value(), kVectors);
        ASSERT_EQ(r.values, expect)
            << name << " " << engine_name(kind) << " packed @ " << w
            << "-bit lanes diverges";

        sim->set_metrics(nullptr);
        std::vector<Bit> scalar;
        for (std::size_t v = 0; v < kVectors; ++v) {
          sim->step(std::span<const Bit>(flat).subspan(v * pis, pis));
          for (NetId po : nl.primary_outputs()) {
            scalar.push_back(sim->final_value(po));
          }
        }
        ASSERT_EQ(r.values, scalar)
            << name << " " << engine_name(kind) << " @ " << w;
      }
    }
  }
}

/// Save a mid-stream arena into the uint64 carrier, restore it into a fresh
/// runner, continue both — every probe and the whole arena must agree.
template <class Word>
void roundtrip_arena_at(const Netlist& nl) {
  const int bits = static_cast<int>(sizeof(Word) * 8);
  const LccCompiled c = compile_lcc(nl, bits);
  KernelRunner<Word> live(c.program);
  RandomVectorSource src(nl.primary_inputs().size(), 0x42);
  std::vector<Bit> row(nl.primary_inputs().size());
  std::vector<Word> in(nl.primary_inputs().size());
  const auto advance = [&](KernelRunner<Word>* a, KernelRunner<Word>* b) {
    src.next(row);
    for (std::size_t i = 0; i < row.size(); ++i) {
      in[i] = static_cast<Word>(static_cast<std::uint64_t>(row[i] & 1u));
    }
    if (a) a->run(in);
    if (b) b->run(in);
  };
  for (int v = 0; v < 4; ++v) advance(&live, nullptr);

  std::vector<std::uint64_t> saved;
  live.save_arena(saved);
  ASSERT_EQ(saved.size(), c.program.arena_words * kWordU64Lanes<Word>)
      << bits << "-bit words carry " << kWordU64Lanes<Word> << " lanes each";
  KernelRunner<Word> restored(c.program);
  restored.load_arena(saved);

  for (int v = 0; v < 3; ++v) advance(&live, &restored);
  for (NetId po : nl.primary_outputs()) {
    const std::uint32_t var = c.net_var[po.value];
    EXPECT_EQ(live.bit(var, 0), restored.bit(var, 0))
        << bits << "-bit lanes, net " << nl.net(po).name;
  }
  std::vector<std::uint64_t> a, b;
  live.save_arena(a);
  restored.save_arena(b);
  EXPECT_EQ(a, b) << bits << "-bit arenas diverged after restore";
}

TEST(WidthMatrix, CheckpointCarrierRoundTripsWideArenas) {
  // The uint64 carrier holds word_bits/64 lanes per arena word; a runner
  // restored from a wide snapshot must continue bit-identically.
  ::unsetenv("UDSIM_FORCE_WIDTH");
  const Netlist nl = make_iscas85_like("c432");
  roundtrip_arena_at<std::uint32_t>(nl);
  roundtrip_arena_at<std::uint64_t>(nl);
#if UDSIM_HAS_W128
  if (width_available(128)) roundtrip_arena_at<u128>(nl);
#endif
  if (width_available(256)) roundtrip_arena_at<u256>(nl);
}

}  // namespace
}  // namespace udsim
