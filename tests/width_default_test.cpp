// Per-engine default lane width (core/width_dispatch.h, DESIGN.md §5j): an
// unset width request gives the lane-packed engines (PC-set, LCC) the
// widest available lane through every make_simulator call form, and keeps
// the parallel variants and Native at 32 bits. Explicit widths and
// UDSIM_FORCE_WIDTH still win; the fallback chain and SimService still
// resolve one 32-bit width for all their engines. Default-built PC-set and
// LCC batches equal the 32-bit engine's and the oracle's rows, settling
// the widest lane count of vectors per pass.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/simulator.h"
#include "core/width_dispatch.h"
#include "gen/iscas_profiles.h"
#include "harness/vectors.h"
#include "ir/program.h"
#include "native/native_backend.h"
#include "obs/metrics.h"
#include "oracle/oracle.h"
#include "service/sim_service.h"
#include "test_util.h"

namespace udsim {
namespace {

constexpr EngineKind kLanePacked[] = {EngineKind::PCSet, EngineKind::ZeroDelayLcc};
constexpr EngineKind kParallel[] = {
    EngineKind::Parallel,            EngineKind::ParallelTrimmed,
    EngineKind::ParallelPathTracing, EngineKind::ParallelCycleBreaking,
    EngineKind::ParallelCombined,
};

/// The lane width an engine was compiled at, and the `dispatch.width` gauge
/// a guard's registry records; built through make_simulator with and
/// without a guard, with the width omitted or passed as 0.
struct Built {
  int plain = 0;         ///< make_simulator(nl, kind[, {}, word_bits])
  int guarded = 0;       ///< make_simulator(nl, kind, guard[, word_bits])
  std::uint64_t gauge = 0;
};

int width_of(const Simulator& sim) { return sim.compiled_program()->word_bits; }

Built build_both(const Netlist& nl, EngineKind kind, bool with_width, int word_bits) {
  MetricsRegistry reg;
  const CompileGuard guard{CompileBudget{}, nullptr, &reg};
  Built b;
  b.plain = with_width ? width_of(*make_simulator(nl, kind, {}, word_bits))
                       : width_of(*make_simulator(nl, kind));
  b.guarded = with_width ? width_of(*make_simulator(nl, kind, guard, word_bits))
                         : width_of(*make_simulator(nl, kind, guard));
  b.gauge = reg.counter("dispatch.width").value();
  return b;
}

/// Every call form with an unset width: with and without a guard, the width
/// omitted or passed as `word_bits = 0`.
void expect_unset_width(const Netlist& nl, EngineKind kind, int want) {
  for (const bool with_width : {false, true}) {
    const Built b = build_both(nl, kind, with_width, 0);
    EXPECT_EQ(b.plain, want) << engine_name(kind) << " with_width " << with_width;
    EXPECT_EQ(b.guarded, want) << engine_name(kind) << " with_width " << with_width;
    EXPECT_EQ(b.gauge, static_cast<std::uint64_t>(want)) << engine_name(kind);
  }
}

std::vector<Bit> make_stream(const Netlist& nl, std::size_t count,
                             std::uint64_t seed) {
  RandomVectorSource src(nl.primary_inputs().size(), seed);
  const std::size_t pis = nl.primary_inputs().size();
  std::vector<Bit> flat(count * pis);
  for (std::size_t v = 0; v < count; ++v) {
    src.next(std::span<Bit>(flat.data() + v * pis, pis));
  }
  return flat;
}

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

TEST(WidthDefault, RequestHelperWidensOnlyTheLanePackedEngines) {
  for (EngineKind kind : kLanePacked) {
    EXPECT_EQ(engine_width_request(kind, 0), kWidthWidest) << engine_name(kind);
    EXPECT_EQ(engine_width_request(kind, 64), 64) << engine_name(kind);
  }
  for (EngineKind kind : kParallel) {
    EXPECT_EQ(engine_width_request(kind, 0), 0) << engine_name(kind);
  }
  EXPECT_EQ(engine_width_request(EngineKind::Native, 0), 0);
  EXPECT_EQ(engine_width_request(EngineKind::Event2, 0), 0);
}

TEST(WidthDefault, UnsetWidthIsWidestForLanePackedAnd32ForTheRest) {
  const test::ScopedEnv clear("UDSIM_FORCE_WIDTH", nullptr);
  const Netlist nl = make_iscas85_like("c432");
  for (EngineKind kind : kLanePacked) expect_unset_width(nl, kind, widest_width());
  for (EngineKind kind : kParallel) expect_unset_width(nl, kind, 32);
}

TEST(WidthDefault, NativeStaysAt32) {
  const test::ScopedEnv clear("UDSIM_FORCE_WIDTH", nullptr);
  if (!native_available()) {
    GTEST_SKIP() << "no usable C compiler (UDSIM_CC) on this machine";
  }
  const Netlist nl = make_iscas85_like("c432");
  expect_unset_width(nl, EngineKind::Native, 32);
}

TEST(WidthDefault, ExplicitWidthsWin) {
  const test::ScopedEnv clear("UDSIM_FORCE_WIDTH", nullptr);
  const Netlist nl = make_iscas85_like("c432");
  for (const int w : supported_widths()) {
    for (EngineKind kind : {EngineKind::PCSet, EngineKind::ZeroDelayLcc,
                            EngineKind::ParallelCombined}) {
      const Built b = build_both(nl, kind, /*with_width=*/true, w);
      EXPECT_EQ(b.plain, w) << engine_name(kind);
      EXPECT_EQ(b.guarded, w) << engine_name(kind);
      EXPECT_EQ(b.gauge, static_cast<std::uint64_t>(w)) << engine_name(kind);
    }
  }
  // kWidthWidest widens the parallel variants too when asked for.
  EXPECT_EQ(width_of(*make_simulator(nl, EngineKind::ParallelCombined, {}, kWidthWidest)),
            widest_width());
}

TEST(WidthDefault, ForceWidthWinsOverTheEngineDefault) {
  const Netlist nl = make_iscas85_like("c432");
  for (const int w : supported_widths()) {
    const std::string bits = std::to_string(w);
    const test::ScopedEnv force("UDSIM_FORCE_WIDTH", bits.c_str());
    for (EngineKind kind : kLanePacked) expect_unset_width(nl, kind, w);
    expect_unset_width(nl, EngineKind::ParallelCombined, w);
    // An explicit request is overridden as well.
    EXPECT_EQ(width_of(*make_simulator(nl, EngineKind::PCSet, {}, 64)), w);
  }
}

TEST(WidthDefault, FallbackChainResolvesOneWidthOf32) {
  const test::ScopedEnv clear("UDSIM_FORCE_WIDTH", nullptr);
  const Netlist nl = make_iscas85_like("c432");
  for (EngineKind kind : kLanePacked) {
    SimPolicy policy;
    policy.chain = {kind};
    const auto sim = make_simulator_with_fallback(nl, policy);
    EXPECT_EQ(sim->kind(), kind);
    EXPECT_EQ(width_of(*sim), 32) << engine_name(kind);
  }
  // The default chain compiles its winner at the same one width.
  MetricsRegistry reg;
  SimPolicy policy;
  policy.metrics = &reg;
  const auto sim = make_simulator_with_fallback(nl, policy);
  EXPECT_EQ(width_of(*sim), 32);
  EXPECT_EQ(reg.counter("dispatch.width").value(), 32u);
}

TEST(WidthDefault, ServiceResolvesOneWidthOf32) {
  const test::ScopedEnv clear("UDSIM_FORCE_WIDTH", nullptr);
  auto nl = std::make_shared<Netlist>(make_iscas85_like("c432"));
  constexpr std::size_t kVectors = 100;
  const std::vector<Bit> flat = make_stream(*nl, kVectors, 0x3dull);
  for (EngineKind kind : kLanePacked) {
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.chain = {kind};
    cfg.telemetry.enabled = false;
    SimService svc(cfg);
    EXPECT_EQ(svc.metrics().counter("dispatch.width").value(), 32u);
    const SimResponse r =
        svc.run(svc.open_session(), SimRequest{.netlist = nl,
                                               .vectors = flat,
                                               .batch_threads = 1});
    ASSERT_EQ(r.outcome, Outcome::Completed) << r.detail;
    EXPECT_EQ(r.engine, kind);
    EXPECT_EQ(svc.metrics().counter("exec.passes").value(),
              (kVectors + 31) / 32)
        << engine_name(kind) << " batch ran 32 lanes per pass";
  }
}

class WidthDefaultProfileTest : public ::testing::TestWithParam<const char*> {
 protected:
  const test::ScopedEnv clear_{"UDSIM_FORCE_WIDTH", nullptr};
};

TEST_P(WidthDefaultProfileTest, DefaultBatchesMatch32BitEngineAndOracle) {
  const Netlist nl = make_iscas85_like(GetParam());
  const std::size_t widest = static_cast<std::size_t>(widest_width());
  // Two full lane groups and a partial third at the widest lane.
  const std::size_t count = 2 * widest + 37;
  const std::vector<Bit> flat = make_stream(nl, count, 0xd1f7ull);
  const std::vector<Bit> expect = oracle_rows(nl, flat, count);
  for (EngineKind kind : kLanePacked) {
    const auto narrow = make_simulator(nl, kind, {}, 32);
    const auto wide = make_simulator(nl, kind);
    ASSERT_EQ(width_of(*wide), widest_width()) << engine_name(kind);
    for (const unsigned threads : {1u, 2u}) {
      MetricsRegistry reg;
      const BatchResult r =
          wide->run_batch(flat, BatchRunOptions{.num_threads = threads, .metrics = &reg});
      ASSERT_EQ(r.values, expect)
          << GetParam() << " " << engine_name(kind) << " @" << threads
          << " threads diverges from the oracle";
      ASSERT_EQ(r.values, narrow->run_batch(flat, threads).values)
          << GetParam() << " " << engine_name(kind) << " @" << threads
          << " threads diverges from the 32-bit engine";
      EXPECT_EQ(reg.counter("sim.vectors").value(), count);
      EXPECT_EQ(reg.counter("exec.passes").value(), (count + widest - 1) / widest)
          << GetParam() << " " << engine_name(kind) << " @" << threads;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllIscas85, WidthDefaultProfileTest,
                         ::testing::Values("c432", "c499", "c880", "c1355",
                                           "c1908", "c2670", "c3540", "c5315",
                                           "c6288", "c7552"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace udsim
