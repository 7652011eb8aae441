// Golden-metrics fixtures: the deterministic counter set (everything except
// wall-clock "*.ns" keys) for three ISCAS-85 profiles, compiled by the three
// production engines and driven through a fixed 8-vector stream, diffed
// against checked-in JSON under tests/golden/.
//
// A counter drifting is either a regression (an optimization silently
// stopped firing) or an intentional change — in which case refresh with
//
//   ./udsim_observability_tests --update-golden        (or set
//   UDSIM_UPDATE_GOLDEN=1) and commit the diff.
//
// This file also provides main() for the observability test binary so the
// refresh flag can be intercepted before gtest sees it.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/simulator.h"
#include "core/width_dispatch.h"
#include "gen/iscas_profiles.h"
#include "golden_flag.h"
#include "obs/metrics.h"

namespace udsim {
namespace {

constexpr std::size_t kVectors = 8;

/// One registry accumulating compile + runtime counters for every engine,
/// with per-engine disambiguation left to the engine-agnostic counter names
/// (the sums are what the fixture pins down). Every engine runs at the one
/// requested width; the unwidthed fixtures pin 32-bit lanes.
std::string collect_metrics(const std::string& circuit, int word_bits) {
  const Netlist nl = make_iscas85_like(circuit, /*seed=*/1);
  MetricsRegistry reg;
  const CompileGuard guard{CompileBudget{}, nullptr, &reg};
  for (EngineKind kind : {EngineKind::ParallelCombined, EngineKind::PCSet,
                          EngineKind::ZeroDelayLcc}) {
    auto sim = make_simulator(nl, kind, guard, word_bits);
    const std::size_t pis = nl.primary_inputs().size();
    std::vector<Bit> row(pis);
    std::uint64_t x = 0x243f6a8885a308d3ull;
    for (std::size_t v = 0; v < kVectors; ++v) {
      for (Bit& b : row) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        b = static_cast<Bit>(x & 1);
      }
      sim->step(row);
    }
  }
  return reg.to_json(/*include_timings=*/false) + "\n";
}

std::string golden_path(const std::string& circuit) {
  return std::string(UDSIM_GOLDEN_DIR) + "/metrics_" + circuit + ".json";
}

class GoldenMetricsTest : public ::testing::TestWithParam<const char*> {};

TEST_P(GoldenMetricsTest, MatchesFixture) {
  const std::string circuit = GetParam();
  const std::string actual = collect_metrics(circuit, 32);
  const std::string path = golden_path(circuit);
  if (test::g_update_golden) {
    std::ofstream out(path);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << actual;
    SUCCEED() << "refreshed " << path;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing fixture " << path
                  << " — run with --update-golden to create it";
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str())
      << "metrics drifted from " << path
      << " — a counter regression, or refresh with --update-golden";
}

INSTANTIATE_TEST_SUITE_P(Circuits, GoldenMetricsTest,
                         ::testing::Values("c432", "c880", "c6288"),
                         [](const auto& info) { return info.param; });

/// Per-width fixtures (DESIGN.md §5j): the same collection driven at each
/// wide lane width. The counter set is deterministic *per width* — the
/// parallel compiler packs gates into wider words, so compile.ops itself
/// legitimately differs across widths and each fixture pins its own shape.
/// Widths this build/CPU cannot execute are skipped, never failed.
class GoldenMetricsWidthTest : public ::testing::TestWithParam<int> {};

TEST_P(GoldenMetricsWidthTest, MatchesFixtureAtWidth) {
  const int width = GetParam();
  if (!width_available(width)) {
    GTEST_SKIP() << width << "-bit lane unavailable on this build/CPU";
  }
  const std::string actual = collect_metrics("c432", width);
  const std::string path = std::string(UDSIM_GOLDEN_DIR) + "/metrics_c432_w" +
                           std::to_string(width) + ".json";
  if (test::g_update_golden) {
    std::ofstream out(path);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << actual;
    SUCCEED() << "refreshed " << path;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing fixture " << path
                  << " — run with --update-golden to create it";
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str())
      << "metrics drifted from " << path
      << " — a counter regression, or refresh with --update-golden";
}

INSTANTIATE_TEST_SUITE_P(WideLanes, GoldenMetricsWidthTest,
                         ::testing::Values(64, 128, 256),
                         [](const auto& info) {
                           return "w" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace udsim

int main(int argc, char** argv) {
  udsim::test::consume_update_golden_flag(argc, argv);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
