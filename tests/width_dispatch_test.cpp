// Runtime lane-width dispatch tests (core/width_dispatch.h, DESIGN.md §5j):
// the UDSIM_FORCE_WIDTH override, the fallback ladder with its structured
// WidthFallback diagnostic and dispatch.* counters, make_simulator calls
// that carry a width request, and the KernelRunner word-size-mismatch
// regression (a program compiled at one width handed to a runner at
// another must surface as a structured ProgramWordSize diagnostic, not a
// bare string).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/simulator.h"
#include "core/width_dispatch.h"
#include "gen/iscas_profiles.h"
#include "ir/program.h"
#include "lcc/lcc.h"
#include "netlist/diagnostics.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace udsim {
namespace {

TEST(WidthDispatch, LadderAlwaysCarries32And64) {
  const test::ScopedEnv clear("UDSIM_FORCE_WIDTH", nullptr);
  const std::vector<int> widths = supported_widths();
  ASSERT_GE(widths.size(), 2u);
  EXPECT_EQ(widths.front(), 32);
  for (std::size_t i = 1; i < widths.size(); ++i) {
    EXPECT_LT(widths[i - 1], widths[i]) << "ascending";
  }
  EXPECT_TRUE(width_available(32));
  EXPECT_TRUE(width_available(64));
  EXPECT_EQ(widest_width(), widths.back());
  for (int w : widths) EXPECT_TRUE(width_available(w)) << w;
  EXPECT_FALSE(width_available(512));
  EXPECT_FALSE(width_compiled(48));
}

TEST(WidthDispatch, DefaultRequestStaysAt32Bits) {
  const test::ScopedEnv clear("UDSIM_FORCE_WIDTH", nullptr);
  const WidthChoice c = dispatch_width();
  EXPECT_EQ(c.word_bits, 32);
  EXPECT_FALSE(c.forced);
  EXPECT_FALSE(c.fell_back);
}

TEST(WidthDispatch, WidestRequestSelectsLadderTop) {
  const test::ScopedEnv clear("UDSIM_FORCE_WIDTH", nullptr);
  const WidthChoice c = dispatch_width(kWidthWidest);
  EXPECT_EQ(c.word_bits, widest_width());
  EXPECT_FALSE(c.fell_back);
}

TEST(WidthDispatch, ExplicitAvailableWidthsDispatchExactly) {
  const test::ScopedEnv clear("UDSIM_FORCE_WIDTH", nullptr);
  const Netlist nl = make_iscas85_like("c432");
  for (int w : supported_widths()) {
    MetricsRegistry reg;
    const WidthChoice c = dispatch_width(w, nullptr, &reg);
    EXPECT_EQ(c.word_bits, w);
    EXPECT_FALSE(c.fell_back);
    EXPECT_EQ(reg.counter("dispatch.width").value(),
              static_cast<std::uint64_t>(w));
    // make_simulator compiles the engine at exactly that width.
    for (EngineKind kind : {EngineKind::ZeroDelayLcc, EngineKind::PCSet,
                            EngineKind::ParallelCombined}) {
      const auto sim = make_simulator(nl, kind, {}, w);
      ASSERT_NE(sim->compiled_program(), nullptr) << engine_name(kind);
      EXPECT_EQ(sim->compiled_program()->word_bits, w) << engine_name(kind);
    }
  }
}

TEST(WidthDispatch, ForceEnvOverridesEveryRequest) {
  const Netlist nl = make_iscas85_like("c432");
  for (int w : supported_widths()) {
    const test::ScopedEnv force("UDSIM_FORCE_WIDTH", std::to_string(w).c_str());
    const WidthChoice c = dispatch_width(/*requested=*/32);
    EXPECT_EQ(c.word_bits, w);
    EXPECT_TRUE(c.forced);
    // The default make_simulator path (no explicit width) obeys the force.
    const auto sim = make_simulator(nl, EngineKind::ZeroDelayLcc);
    ASSERT_NE(sim->compiled_program(), nullptr);
    EXPECT_EQ(sim->compiled_program()->word_bits, w) << "forced " << w;
  }
}

TEST(WidthDispatch, UnknownRequestFallsDownLadderWithDiagnostic) {
  const test::ScopedEnv clear("UDSIM_FORCE_WIDTH", nullptr);
  Diagnostics diag;
  MetricsRegistry reg;
  // 512 is above the ladder: fall to the widest available width.
  const WidthChoice wide = dispatch_width(512, &diag, &reg);
  EXPECT_EQ(wide.word_bits, widest_width());
  EXPECT_TRUE(wide.fell_back);
  ASSERT_TRUE(diag.has(DiagCode::WidthFallback));
  const Diagnostic* d = diag.first(DiagCode::WidthFallback);
  EXPECT_EQ(d->severity, DiagSeverity::Warning);
  EXPECT_NE(d->subject.find("512"), std::string::npos) << d->subject;
  EXPECT_EQ(reg.counter("dispatch.width_fallbacks").value(), 1u);
  EXPECT_EQ(reg.counter("dispatch.width").value(),
            static_cast<std::uint64_t>(widest_width()));
  // 48 sits between rungs: fall to the widest width not above it (32).
  const WidthChoice narrow = dispatch_width(48, &diag, &reg);
  EXPECT_EQ(narrow.word_bits, 32);
  EXPECT_TRUE(narrow.fell_back);
  EXPECT_EQ(diag.count(DiagCode::WidthFallback), 2u);
  EXPECT_EQ(reg.counter("dispatch.width_fallbacks").value(), 2u);
}

TEST(WidthDispatch, ForcedUnavailableWidthAlsoFallsBack) {
  const test::ScopedEnv force("UDSIM_FORCE_WIDTH", "512");
  Diagnostics diag;
  const WidthChoice c = dispatch_width(/*requested=*/32, &diag);
  EXPECT_EQ(c.word_bits, widest_width());
  EXPECT_TRUE(c.forced);
  EXPECT_TRUE(c.fell_back);
  EXPECT_TRUE(diag.has(DiagCode::WidthFallback));
}

TEST(WidthDispatch, KernelRunnerRejectsMismatchedProgramWithDiagnostic) {
  // Regression: a program compiled for 64-bit words handed to a 32-bit
  // runner must throw WordSizeMismatch naming BOTH widths and report a
  // structured ProgramWordSize record (historically a bare string).
  const test::ScopedEnv clear("UDSIM_FORCE_WIDTH", nullptr);
  const Netlist nl = make_iscas85_like("c432");
  const LccCompiled compiled = compile_lcc(nl, 64);
  ASSERT_EQ(compiled.program.word_bits, 64);
  Diagnostics diag;
  try {
    const KernelRunner<std::uint32_t> runner(compiled.program, &diag);
    FAIL() << "mismatched widths must not construct";
  } catch (const WordSizeMismatch& e) {
    EXPECT_EQ(e.program_bits(), 64);
    EXPECT_EQ(e.runner_bits(), 32);
    const std::string what = e.what();
    EXPECT_NE(what.find("64"), std::string::npos) << what;
    EXPECT_NE(what.find("32"), std::string::npos) << what;
  }
  ASSERT_TRUE(diag.has(DiagCode::ProgramWordSize));
  const Diagnostic* d = diag.first(DiagCode::ProgramWordSize);
  EXPECT_EQ(d->severity, DiagSeverity::Error);
  EXPECT_EQ(d->subject, "KernelRunner");
}

TEST(WidthDispatch, NativeEngineRejectsWideWidths) {
  // The native backend has no portable C word type above 64 bits; a direct
  // request is a caller error, not a silent downgrade.
  const test::ScopedEnv clear("UDSIM_FORCE_WIDTH", nullptr);
  const Netlist nl = make_iscas85_like("c432");
  if (!width_available(128)) GTEST_SKIP() << "no 128-bit lane on this build";
  EXPECT_THROW((void)make_simulator(nl, EngineKind::Native, {}, 128),
               std::invalid_argument);
}

TEST(WidthDispatch, FallbackChainSkipsNativeAtWideWidths) {
  // In a *chain*, the same situation is a structured skip: NativeFallback
  // diagnostic + native.fallback counter, then the IR engines take over at
  // the requested width.
  const test::ScopedEnv clear("UDSIM_FORCE_WIDTH", nullptr);
  if (!width_available(128)) GTEST_SKIP() << "no 128-bit lane on this build";
  const Netlist nl = make_iscas85_like("c432");
  MetricsRegistry reg;
  SimPolicy policy;
  policy.chain = {EngineKind::Native, EngineKind::ZeroDelayLcc};
  policy.word_bits = 128;
  policy.metrics = &reg;
  Diagnostics diag;
  const auto sim = make_simulator_with_fallback(nl, policy, &diag);
  EXPECT_EQ(sim->kind(), EngineKind::ZeroDelayLcc);
  ASSERT_NE(sim->compiled_program(), nullptr);
  EXPECT_EQ(sim->compiled_program()->word_bits, 128);
  EXPECT_TRUE(diag.has(DiagCode::NativeFallback));
  EXPECT_EQ(reg.counter("native.fallback").value(), 1u);
  EXPECT_EQ(reg.counter("dispatch.width").value(), 128u);
}

}  // namespace
}  // namespace udsim
