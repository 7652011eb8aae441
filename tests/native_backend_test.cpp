// Cross-backend differential suite for the native-code backend (ISSUE PR 6,
// DESIGN.md §5h): the dlopen'd machine code must be *bit-identical* to the
// in-process IR executor — the semantic reference — on every ISCAS-85
// profile, for every base compiler (LCC, PC-set, parallel-combined) and both
// word sizes. The comparison is the strongest one available: full arenas
// after every vector, driven by arbitrary random input words (not just 0/1
// in bit 0), so every op's full-width behavior is exercised.
//
// Also covered here: the object cache (hit/miss counters, shared-object
// reuse), the whole-stream `udsim_kernel_run` entry vs the per-vector
// kernel, and EngineKind::Native behind the Simulator facade — the
// ParallelCombined engine whose passes run the module's kernel: step and
// batch equivalence, both word sizes, the thread matrix with
// exec.ops == compile.ops × passes, checkpoint/resume, and cancellation.
//
// Every test skips (not fails) when the machine has no usable C compiler.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "core/batch_runner.h"
#include "core/simulator.h"
#include "gen/iscas_profiles.h"
#include "ir/executor.h"
#include "lcc/lcc.h"
#include "oracle/oracle.h"
#include "parsim/parallel_sim.h"
#include "pcsim/pcset_sim.h"
#include "resilience/cancel.h"
#include "resilience/resilient_run.h"

namespace udsim {
namespace {

namespace fs = std::filesystem;

/// One cache directory per test-binary run: within the run, re-constructing
/// the same program is a cache hit, while stale objects from *other* builds
/// of the emitter can never leak in (the fingerprint keys the program, not
/// the emitter version).
const std::string& test_cache_dir() {
  static const std::string dir = [] {
    std::error_code ec;
    fs::path tmp = fs::temp_directory_path(ec);
    if (ec) tmp = "/tmp";
    return (tmp / ("udsim-native-tests-" + std::to_string(::getpid())))
        .string();
  }();
  return dir;
}

NativeOptions test_native_options() {
  NativeOptions opts;
  opts.compile_flags = "-O0";  // differential correctness, not throughput
  opts.cache_dir = test_cache_dir();
  opts.max_cache_entries = 0;  // no eviction mid-suite
  opts.keep_source = true;     // mismatch forensics point at the .c file
  return opts;
}

#define SKIP_WITHOUT_NATIVE()                                            \
  if (!native_available(test_native_options())) {                        \
    GTEST_SKIP() << "no usable C compiler (UDSIM_CC) on this machine";   \
  }

/// Drive `p` through the IR executor and the dlopen'd module in lockstep
/// and require identical arenas after init and after every vector.
template <class Word>
void expect_native_matches_ir(const Program& p, const std::string& label) {
  MetricsRegistry reg;
  const NativeModule mod(p, label, test_native_options(), &reg);

  std::vector<Word> ir(p.arena_words, Word{0});
  std::vector<Word> nat(p.arena_words, ~Word{0});  // init must zero this
  initialize_arena(p, std::span<Word>(ir));
  mod.init(nat.data());
  ASSERT_EQ(ir, nat) << label << ": arenas differ after init"
                     << " (source: " << mod.source_path() << ")";

  std::vector<Word> in(p.input_words);
  std::uint64_t x = 0x243f6a8885a308d3ull;
  for (int v = 0; v < 4; ++v) {
    for (Word& w : in) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      w = static_cast<Word>(x);
    }
    execute<Word>(p, in, ir);
    mod.kernel<Word>()(nat.data(), in.data());
    ASSERT_EQ(ir, nat) << label << ": arenas differ after vector " << v
                       << " (source: " << mod.source_path() << ")";
  }
}

void expect_native_matches_ir_both_widths(const Netlist& nl,
                                          const std::string& circuit) {
  for (const int wb : {32, 64}) {
    const std::string suffix = "-w" + std::to_string(wb);
    ParallelOptions popts;
    popts.trimming = true;
    popts.shift_elim = ShiftElim::PathTracing;
    popts.word_bits = wb;
    const Program lcc = compile_lcc(nl, wb).program;
    const Program pcset = compile_pcset(nl, {}, wb).program;
    const Program parallel = compile_parallel(nl, popts).program;
    if (wb == 32) {
      expect_native_matches_ir<std::uint32_t>(lcc, circuit + "-lcc" + suffix);
      expect_native_matches_ir<std::uint32_t>(pcset,
                                              circuit + "-pcset" + suffix);
      expect_native_matches_ir<std::uint32_t>(
          parallel, circuit + "-parallel-combined" + suffix);
    } else {
      expect_native_matches_ir<std::uint64_t>(lcc, circuit + "-lcc" + suffix);
      expect_native_matches_ir<std::uint64_t>(pcset,
                                              circuit + "-pcset" + suffix);
      expect_native_matches_ir<std::uint64_t>(
          parallel, circuit + "-parallel-combined" + suffix);
    }
  }
}

class NativeDifferentialTest : public ::testing::TestWithParam<std::string> {};

TEST_P(NativeDifferentialTest, BitIdenticalToIrExecutor) {
  SKIP_WITHOUT_NATIVE();
  const Netlist nl = make_iscas85_like(GetParam(), /*seed=*/1);
  expect_native_matches_ir_both_widths(nl, GetParam());
}

std::vector<std::string> all_profile_names() {
  std::vector<std::string> names;
  for (const IscasProfile& p : iscas85_profiles()) {
    names.push_back(p.name);
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(AllProfiles, NativeDifferentialTest,
                         ::testing::ValuesIn(all_profile_names()),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------------
// Object cache.

TEST(NativeCacheTest, SecondConstructionHitsTheCache) {
  SKIP_WITHOUT_NATIVE();
  const Netlist nl = make_iscas85_like("c432", 1);
  const Program p = compile_parallel(nl, {}).program;
  NativeOptions opts = test_native_options();
  opts.cache_dir = test_cache_dir() + "/hit-miss";

  MetricsRegistry reg;
  const NativeModule first(p, "cache-test", opts, &reg);
  EXPECT_FALSE(first.from_cache());
  const NativeModule second(p, "cache-test", opts, &reg);
  EXPECT_TRUE(second.from_cache());
  EXPECT_EQ(first.so_path(), second.so_path());

  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.at("native.cache.miss"), 1u);
  EXPECT_EQ(snap.at("native.cache.hit"), 1u);
  EXPECT_EQ(snap.at("native.builds"), 1u) << "a hit must not recompile";
}

TEST(NativeCacheTest, KeySeparatesEngineAndWordSize) {
  const Netlist nl = make_iscas85_like("c432", 1);
  const Program p32 = compile_parallel(nl, {}).program;
  ParallelOptions o64;
  o64.word_bits = 64;
  const Program p64 = compile_parallel(nl, o64).program;
  EXPECT_NE(native_cache_key(p32, "lcc"), native_cache_key(p32, "pcset"));
  EXPECT_NE(native_cache_key(p32, "lcc"), native_cache_key(p64, "lcc"));
  // Label sanitization: anything non-alphanumeric becomes '-'.
  EXPECT_EQ(native_cache_key(p32, "a b/c"), native_cache_key(p32, "a-b-c"));
}

TEST(NativeCacheTest, FingerprintTracksProgramContent) {
  const Netlist nl = make_iscas85_like("c432", 1);
  Program p = compile_parallel(nl, {}).program;
  const std::uint64_t before = program_fingerprint(p);
  EXPECT_EQ(before, program_fingerprint(p)) << "fingerprint must be stable";
  ASSERT_FALSE(p.ops.empty());
  p.ops.back().dst ^= 1;
  EXPECT_NE(before, program_fingerprint(p))
      << "a changed op must change the cache key";
}

// ---------------------------------------------------------------------------
// Whole-stream entry.

TEST(NativeRunEntryTest, RunMatchesStepLoop) {
  SKIP_WITHOUT_NATIVE();
  const Netlist nl = make_iscas85_like("c432", 1);
  const Program p = compile_parallel(nl, {}).program;
  const NativeModule mod(p, "run-entry", test_native_options());

  constexpr std::uint64_t kVectors = 16;
  std::vector<std::uint32_t> stream(kVectors * p.input_words);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (std::uint32_t& w : stream) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    w = static_cast<std::uint32_t>(x);
  }

  std::vector<std::uint32_t> stepped(p.arena_words);
  std::vector<std::uint32_t> streamed(p.arena_words);
  mod.init(stepped.data());
  mod.init(streamed.data());
  for (std::uint64_t v = 0; v < kVectors; ++v) {
    mod.kernel<std::uint32_t>()(stepped.data(), stream.data() + v * p.input_words);
  }
  mod.run(streamed.data(), stream.data(), kVectors);
  EXPECT_EQ(stepped, streamed)
      << "udsim_kernel_run must equal " << kVectors << " udsim_kernel calls";
}

TEST(NativeRunEntryTest, BatchRunnerRejectsAModuleOfAnotherWidth) {
  SKIP_WITHOUT_NATIVE();
  const Netlist nl = make_iscas85_like("c432", 1);
  const Program p32 = compile_parallel(nl, {}).program;
  ParallelOptions o64;
  o64.word_bits = 64;
  const Program p64 = compile_parallel(nl, o64).program;
  const NativeModule mod32(p32, "width-guard", test_native_options());
  EXPECT_THROW(BatchRunner(p64, {}, BatchOptions{.native = &mod32}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Simulator facade.

/// EngineKind::Native through the facade: a chain of only the native
/// engine, so a toolchain failure fails the test instead of falling back.
std::unique_ptr<Simulator> make_native_sim(const Netlist& nl, int word_bits = 0,
                                           MetricsRegistry* reg = nullptr) {
  SimPolicy policy;
  policy.chain = {EngineKind::Native};
  policy.native = test_native_options();
  policy.word_bits = word_bits;
  policy.metrics = reg;
  auto sim = make_simulator_with_fallback(nl, policy);
  EXPECT_EQ(sim->kind(), EngineKind::Native);
  EXPECT_NE(sim->native_module(), nullptr);
  return sim;
}

std::vector<Bit> xorshift_bits(std::size_t n, std::uint64_t x) {
  std::vector<Bit> bits(n);
  for (Bit& b : bits) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<Bit>(x & 1);
  }
  return bits;
}

/// OracleSim's settled primary outputs for `stream`, row-major.
std::vector<Bit> oracle_rows(const Netlist& nl, std::span<const Bit> stream) {
  const std::size_t pis = nl.primary_inputs().size();
  OracleSim oracle(nl);
  std::vector<Bit> rows;
  for (std::size_t v = 0; v * pis < stream.size(); ++v) {
    const Waveform wf = oracle.step(stream.subspan(v * pis, pis));
    for (NetId po : nl.primary_outputs()) rows.push_back(wf.final_value(po));
  }
  return rows;
}

TEST(NativeSimulatorTest, StepMatchesParallelCombinedFacade) {
  SKIP_WITHOUT_NATIVE();
  const Netlist nl = make_iscas85_like("c880", 1);
  auto native = make_native_sim(nl);
  auto ir = make_simulator(nl, EngineKind::ParallelCombined);

  const std::size_t pis = nl.primary_inputs().size();
  const std::vector<Bit> stream = xorshift_bits(8 * pis, 0x2545f4914f6cdd1dull);
  for (std::size_t v = 0; v < 8; ++v) {
    const auto row = std::span<const Bit>(stream).subspan(v * pis, pis);
    native->step(row);
    ir->step(row);
    for (NetId po : nl.primary_outputs()) {
      ASSERT_EQ(native->final_value(po), ir->final_value(po))
          << "PO " << po.value << " diverged at vector " << v;
    }
  }
}

TEST(NativeSimulatorTest, RunBatchShardsAndMatchesStepLoop) {
  SKIP_WITHOUT_NATIVE();
  const Netlist nl = make_iscas85_like("c499", 1);
  auto sim = make_native_sim(nl);

  const std::size_t pis = nl.primary_inputs().size();
  constexpr std::size_t kVectors = 40;
  const std::vector<Bit> stream = xorshift_bits(kVectors * pis, 7);
  const BatchResult batch =
      sim->run_batch(stream, BatchRunOptions{.num_threads = 3});
  EXPECT_EQ(batch.vectors, kVectors);
  EXPECT_EQ(batch.threads, 3u) << "native batches shard like IR batches";

  auto oracle = make_simulator(nl, EngineKind::ParallelCombined);
  for (std::size_t v = 0; v < kVectors; ++v) {
    oracle->step(std::span<const Bit>(stream).subspan(v * pis, pis));
    for (std::size_t o = 0; o < batch.outputs.size(); ++o) {
      ASSERT_EQ(batch.value(v, o), oracle->final_value(batch.outputs[o]))
          << "vector " << v << " output " << o;
    }
  }
}

TEST(NativeSimulatorTest, ExecOpsEqualsCompileOpsTimesPasses) {
  SKIP_WITHOUT_NATIVE();
  const Netlist nl = make_iscas85_like("c432", 1);
  MetricsRegistry reg;
  SimPolicy policy = native_sim_policy(test_native_options());
  policy.metrics = &reg;
  auto sim = make_simulator_with_fallback(nl, policy);
  ASSERT_EQ(sim->kind(), EngineKind::Native)
      << "with a working toolchain the chain must pick native";

  constexpr std::uint64_t kPasses = 5;
  std::vector<Bit> row(nl.primary_inputs().size(), 1);
  for (std::uint64_t i = 0; i < kPasses; ++i) sim->step(row);
  const auto snap = reg.snapshot();
  ASSERT_NE(snap.at("compile.ops"), 0u);
  EXPECT_EQ(snap.at("exec.ops"), snap.at("compile.ops") * kPasses)
      << "the facade invariant must hold on the native path too";
}

TEST(NativeSimulatorTest, StreamEntryMatchesStepOnTheFacade) {
  SKIP_WITHOUT_NATIVE();
  // The whole-stream entry is a module call, not an engine path: run it on
  // the facade's module against a fresh arena and compare with stepping.
  const Netlist nl = make_iscas85_like("c1355", 1);
  auto stepped = make_native_sim(nl);
  const NativeModule& mod = *stepped->native_module();
  const Program& p = *stepped->compiled_program();

  const std::size_t pis = nl.primary_inputs().size();
  ASSERT_EQ(p.input_words, pis);
  constexpr std::uint64_t kVectors = 6;
  const std::vector<Bit> stream = xorshift_bits(kVectors * pis, 3);
  for (std::uint64_t v = 0; v < kVectors; ++v) {
    stepped->step(std::span<const Bit>(stream).subspan(v * pis, pis));
  }
  const std::vector<std::uint32_t> words(stream.begin(), stream.end());
  std::vector<std::uint32_t> arena(p.arena_words);
  mod.init(arena.data());
  mod.run(arena.data(), words.data(), kVectors);
  const std::vector<ArenaProbe> probes = stepped->output_probes();
  for (std::size_t o = 0; o < probes.size(); ++o) {
    EXPECT_EQ(stepped->final_value(nl.primary_outputs()[o]),
              (arena[probes[o].word] >> probes[o].bit) & 1u)
        << "PO " << nl.primary_outputs()[o].value;
  }
}

TEST(NativeSimulatorTest, DispatchedWidthIsTheProgramAndModuleWidth) {
  SKIP_WITHOUT_NATIVE();
  const Netlist nl = make_iscas85_like("c880", 1);
  const std::size_t pis = nl.primary_inputs().size();
  const std::vector<Bit> stream = xorshift_bits(48 * pis, 0x5eed);
  const std::vector<Bit> expect = oracle_rows(nl, stream);
  for (const int bits : {32, 64}) {
    MetricsRegistry reg;
    auto sim = make_native_sim(nl, bits, &reg);
    ASSERT_EQ(sim->compiled_program()->word_bits, bits);
    EXPECT_EQ(sim->native_module()->word_bits(), bits);
    EXPECT_EQ(reg.snapshot().at("dispatch.width"),
              static_cast<std::uint64_t>(bits));
    EXPECT_EQ(sim->run_batch(stream, 2).values, expect) << bits << "-bit";
    std::vector<Bit> stepped;
    for (std::size_t v = 0; v < 48; ++v) {
      sim->step(std::span<const Bit>(stream).subspan(v * pis, pis));
      for (NetId po : nl.primary_outputs()) stepped.push_back(sim->final_value(po));
    }
    EXPECT_EQ(stepped, expect) << bits << "-bit step";
  }
  // The plain factory honors an explicit width too; wider ones are refused.
  auto direct = make_simulator(nl, EngineKind::Native, {}, 64);
  EXPECT_EQ(direct->compiled_program()->word_bits, 64);
  EXPECT_EQ(direct->native_module()->word_bits(), 64);
  EXPECT_EQ(direct->run_batch(stream, 1).values, expect);
}

TEST(NativeSimulatorTest, ThreadMatrixMatchesOracleAndCountsExactly) {
  SKIP_WITHOUT_NATIVE();
  const Netlist nl = make_iscas85_like("c1908", 1);
  const std::size_t pis = nl.primary_inputs().size();
  constexpr std::size_t kVectors = 97;
  const std::vector<Bit> stream = xorshift_bits(kVectors * pis, 0xfeed);
  const std::vector<Bit> expect = oracle_rows(nl, stream);
  for (const unsigned threads : {1u, 2u, 5u}) {
    MetricsRegistry reg;
    auto sim = make_native_sim(nl, 0, &reg);
    const BatchResult r = sim->run_batch(stream, threads);
    EXPECT_EQ(r.threads, threads);
    EXPECT_EQ(r.values, expect) << threads << " threads";
    const auto snap = reg.snapshot();
    EXPECT_EQ(snap.at("exec.passes"), kVectors) << threads << " threads";
    EXPECT_EQ(snap.at("exec.ops"), snap.at("compile.ops") * kVectors)
        << threads << " threads";
  }
}

TEST(NativeSimulatorTest, CheckpointResumesBitIdentically) {
  SKIP_WITHOUT_NATIVE();
  const Netlist nl = make_iscas85_like("c880", 1);
  const std::size_t pis = nl.primary_inputs().size();
  constexpr std::size_t kVectors = 60;
  const std::vector<Bit> stream = xorshift_bits(kVectors * pis, 0xc0ffee);
  auto sim = make_native_sim(nl);
  const std::vector<Bit> expect = oracle_rows(nl, stream);

  // A deterministic stop mid-way through shard 1 ([30, 60)): shard 0 is
  // done, shard 1 checkpoints the native-settled arena after vector 39.
  FaultInjector inject(11);
  inject.add_site({FaultSite::DeadlineOverrun, 1, 40, 0});
  const ResilientResult stopped = run_batch_resilient(
      *sim, stream, ResilientOptions{.num_threads = 2, .inject = &inject});
  ASSERT_EQ(stopped.status, RunStatus::DeadlineExpired);
  ASSERT_TRUE(stopped.resumable);
  ASSERT_EQ(stopped.vectors_done, 40u);

  const ResilientResult resumed = run_batch_resilient(
      *sim, stream,
      ResilientOptions{.num_threads = 2, .resume = &stopped.checkpoint});
  EXPECT_EQ(resumed.status, RunStatus::Complete);
  EXPECT_EQ(resumed.batch.values, expect);
}

// ---------------------------------------------------------------------------
// Cancellation (resilience contract): the native engine stops at the same
// sites as every compiled engine.

TEST(NativeCancelTest, StepThrowsAtNativeStepSite) {
  SKIP_WITHOUT_NATIVE();
  const Netlist nl = make_iscas85_like("c432", 1);
  auto sim = make_native_sim(nl);
  CancelToken token;
  sim->set_cancel(&token);
  std::vector<Bit> row(nl.primary_inputs().size(), 0);
  sim->step(row);  // not cancelled yet
  token.request_cancel();
  try {
    sim->step(row);
    FAIL() << "expected Cancelled";
  } catch (const Cancelled& c) {
    EXPECT_EQ(c.reason(), StopReason::Cancelled);
    EXPECT_EQ(c.site(), "kernel.run");
    EXPECT_EQ(c.vector_index(), 2u) << "the second pass was the one stopped";
  }
}

TEST(NativeCancelTest, RunBatchThrowsAtBatchRunSite) {
  SKIP_WITHOUT_NATIVE();
  const Netlist nl = make_iscas85_like("c432", 1);
  auto sim = make_native_sim(nl);
  CancelToken token;
  token.request_cancel();
  sim->set_cancel(&token);
  const std::vector<Bit> stream(4 * nl.primary_inputs().size(), 0);
  try {
    (void)sim->run_batch(stream, 1);
    FAIL() << "expected Cancelled";
  } catch (const Cancelled& c) {
    EXPECT_EQ(c.site(), "batch.run");
    EXPECT_EQ(c.vector_index(), 0u) << "pre-cancelled: stop before vector 0";
  }
}

}  // namespace
}  // namespace udsim
