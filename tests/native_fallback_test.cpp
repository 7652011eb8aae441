// Forced-failure tests for every stage of the native pipeline (DESIGN.md
// §5h failure taxonomy): a bad compiler path (Compile), an unusable cache
// directory (Cache), a corrupted cached shared object (Load) and a cached
// object missing the entry points (Symbol). Each stage is asserted twice —
// directly (NativeModule throws a NativeError carrying the right stage) and
// through the engine chain (native_sim_policy falls back to the IR path
// with a DiagCode::NativeFallback record, a native.fallback counter, and
// the exec.ops == compile.ops × passes invariant intact on the engine that
// actually runs). Also here, because it needs the fake compiler: the
// poisoned-kernel regression proving every batch path of the native engine
// runs the dlopen'd code, not the IR executor.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/simulator.h"
#include "gen/iscas_profiles.h"
#include "core/kernel_runner.h"
#include "native/native_backend.h"
#include "netlist/diagnostics.h"
#include "parsim/parallel_sim.h"
#include "resilience/resilient_run.h"
#include "service/sim_service.h"

namespace udsim {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per call, under the system temp dir.
std::string fresh_dir(const std::string& tag) {
  static int counter = 0;
  std::error_code ec;
  fs::path tmp = fs::temp_directory_path(ec);
  if (ec) tmp = "/tmp";
  const fs::path dir = tmp / ("udsim-fallback-" + std::to_string(::getpid()) +
                              "-" + tag + "-" + std::to_string(counter++));
  fs::create_directories(dir, ec);
  return dir.string();
}

/// The base program the facade's native engine compiles at the default
/// width (must mirror parallel_options(EngineKind::Native) in
/// core/simulator.cpp so cache keys line up).
Program facade_base_program(const Netlist& nl) {
  ParallelOptions o;
  o.trimming = true;
  o.shift_elim = ShiftElim::PathTracing;
  o.word_bits = 32;
  return compile_parallel(nl, o).program;
}

/// Path the facade's native engine will probe in `cache_dir` for `nl`.
std::string facade_cached_so(const Netlist& nl, const std::string& cache_dir) {
  return (fs::path(cache_dir) /
          (native_cache_key(facade_base_program(nl), "parallel-combined") +
           ".so"))
      .string();
}

/// Walk the native-first chain expecting the native attempt to fail: the
/// selected engine must be the IR first choice, the failure must be a
/// structured NativeFallback record ahead of EngineSelected, the counter
/// must tick, and the compile/exec counters must describe the engine that
/// runs, not the abandoned native attempt.
void expect_structured_fallback(const Netlist& nl, const NativeOptions& opts,
                                NativeStage stage) {
  MetricsRegistry reg;
  Diagnostics diag;
  SimPolicy policy = native_sim_policy(opts);
  policy.metrics = &reg;
  auto sim = make_simulator_with_fallback(nl, policy, &diag);
  ASSERT_NE(sim, nullptr);
  EXPECT_EQ(sim->kind(), EngineKind::ParallelCombined)
      << "the chain must land on the first IR engine";

  std::size_t fallback_at = diag.records().size();
  std::size_t selected_at = diag.records().size();
  for (std::size_t i = 0; i < diag.records().size(); ++i) {
    const Diagnostic& d = diag.records()[i];
    if (d.code == DiagCode::NativeFallback && fallback_at == diag.records().size()) {
      fallback_at = i;
      EXPECT_EQ(d.severity, DiagSeverity::Warning);
      EXPECT_EQ(d.subject, "native (dlopen)");
      EXPECT_NE(d.message.find(std::string(native_stage_name(stage)) +
                               " stage failed"),
                std::string::npos)
          << "message must carry the failing stage: " << d.message;
    }
    if (d.code == DiagCode::EngineSelected) selected_at = i;
  }
  ASSERT_LT(fallback_at, diag.records().size()) << "no NativeFallback record";
  ASSERT_LT(selected_at, diag.records().size()) << "no EngineSelected record";
  EXPECT_LT(fallback_at, selected_at)
      << "fallback must be recorded before selection";
  EXPECT_NE(diag.records()[selected_at].message.find("after native fallback"),
            std::string::npos)
      << diag.records()[selected_at].message;

  auto snap = reg.snapshot();
  EXPECT_EQ(snap.at("native.fallback"), 1u);
  // The abandoned native attempt compiled its own base program; the
  // rollback in the chain walk must leave compile.ops describing only the
  // engine that runs, so the facade invariant survives the fallback.
  ASSERT_NE(sim->compiled_program(), nullptr);
  EXPECT_EQ(snap.at("compile.ops"), sim->compiled_program()->ops.size());
  constexpr std::uint64_t kPasses = 2;
  std::vector<Bit> row(nl.primary_inputs().size(), 1);
  for (std::uint64_t i = 0; i < kPasses; ++i) sim->step(row);
  snap = reg.snapshot();
  EXPECT_EQ(snap.at("exec.ops"), snap.at("compile.ops") * kPasses);
}

TEST(NativeFallbackTest, BadCompilerFailsTheCompileStage) {
  const Netlist nl = make_iscas85_like("c432", 1);
  NativeOptions opts;
  opts.compiler = "/nonexistent/udsim-no-such-cc";
  opts.cache_dir = fresh_dir("compile");
  try {
    NativeModule mod(facade_base_program(nl), "parallel-combined", opts);
    FAIL() << "expected NativeError";
  } catch (const NativeError& e) {
    EXPECT_EQ(e.stage(), NativeStage::Compile);
    EXPECT_NE(std::string(e.what()).find("compile stage"), std::string::npos);
  }
  expect_structured_fallback(nl, opts, NativeStage::Compile);
}

TEST(NativeFallbackTest, FileAsCacheDirFailsTheCacheStage) {
  const Netlist nl = make_iscas85_like("c432", 1);
  const std::string dir = fresh_dir("cache");
  const std::string file = dir + "/not-a-directory";
  { std::ofstream(file) << "occupied\n"; }
  NativeOptions opts;
  opts.cache_dir = file;  // a regular file: create_directories must fail
  try {
    NativeModule mod(facade_base_program(nl), "parallel-combined", opts);
    FAIL() << "expected NativeError";
  } catch (const NativeError& e) {
    EXPECT_EQ(e.stage(), NativeStage::Cache);
  }
  expect_structured_fallback(nl, opts, NativeStage::Cache);
}

/// Write an executable /bin/sh script into `dir` and return its path.
std::string write_fake_cc(const std::string& dir, const std::string& body) {
  const std::string path = dir + "/fakecc.sh";
  { std::ofstream f(path); f << "#!/bin/sh\n" << body; }
  std::error_code ec;
  fs::permissions(path,
                  fs::perms::owner_all | fs::perms::group_read |
                      fs::perms::others_read,
                  fs::perm_options::replace, ec);
  return path;
}

// Regression: the native engine's machine code runs on every batch path.
// A compiler wrapper empties `udsim_kernel`'s body before handing the
// source to the real compiler, so a pass through the module leaves the
// arena at its initial state: every row the module produced is the
// "poisoned" row read from a fresh arena, while the IR executor produces
// the circuit's real outputs. run_batch, run_batch_resilient and a
// SimService request with enable_native must all return poisoned rows.
TEST(NativeFallbackTest, PoisonedKernelRunsOnEveryBatchPath) {
  NativeOptions probe;
  if (!native_available(probe)) GTEST_SKIP() << "no usable C compiler";
  const auto nl = std::make_shared<Netlist>(make_iscas85_like("c432", 1));
  NativeOptions opts;
  opts.compile_flags = "-O0";
  opts.cache_dir = fresh_dir("poison");
  opts.compiler = write_fake_cc(
      opts.cache_dir,
      "for a in \"$@\"; do\n"
      "  case \"$a\" in *.c)\n"
      "    sed -i -e '/^void udsim_kernel(/,/^}$/{' -e '/^void udsim_kernel(/b'"
      " -e '/^}$/b' -e d -e '}' \"$a\" ;;\n"
      "  esac\n"
      "done\n"
      "exec " + resolved_compiler(probe) + " \"$@\"\n");

  SimPolicy policy;
  policy.chain = {EngineKind::Native};
  policy.native = opts;
  auto sim = make_simulator_with_fallback(*nl, policy);
  ASSERT_EQ(sim->kind(), EngineKind::Native);

  const std::size_t pis = nl->primary_inputs().size();
  constexpr std::size_t kVectors = 24;
  std::vector<Bit> stream(kVectors * pis);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (Bit& b : stream) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<Bit>(x & 1);
  }
  const KernelRunner<std::uint32_t> fresh(*sim->compiled_program());
  std::vector<Bit> poisoned;
  for (std::size_t v = 0; v < kVectors; ++v) {
    for (const ArenaProbe& pr : sim->output_probes()) {
      poisoned.push_back(fresh.bit(pr.word, pr.bit));
    }
  }
  const auto ir = make_simulator(*nl, EngineKind::ParallelCombined);
  ASSERT_NE(ir->run_batch(stream, 1).values, poisoned)
      << "the stream must tell the poisoned kernel from the real one";

  EXPECT_EQ(sim->run_batch(stream, 1).values, poisoned) << "run_batch";
  EXPECT_EQ(sim->run_batch(stream, 2).values, poisoned) << "sharded run_batch";
  const ResilientResult resilient = run_batch_resilient(*sim, stream);
  ASSERT_EQ(resilient.status, RunStatus::Complete);
  EXPECT_EQ(resilient.batch.values, poisoned) << "run_batch_resilient";

  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.enable_native = true;
  cfg.native = opts;
  SimService svc(cfg);
  const SessionId sid = svc.open_session("poisoned-kernel");
  const SimResponse r = svc.run(sid, SimRequest{.netlist = nl, .vectors = stream});
  ASSERT_EQ(r.outcome, Outcome::Completed) << r.detail;
  EXPECT_EQ(r.engine, EngineKind::Native);
  EXPECT_EQ(r.batch.values, poisoned) << "SimService request";
}

// A corrupted *cached* object is corruption, not failure: the backend must
// evict it, recompile as a miss, and bump native.cache.corrupt — the bad
// entry never surfaces to the caller (ISSUE 7 satellite: cache corruption
// recovery). A bit-flipped ELF header is the classic torn-write shape.
TEST(NativeFallbackTest, BitFlippedCachedObjectIsEvictedAndRebuilt) {
  NativeOptions probe;
  if (!native_available(probe)) GTEST_SKIP() << "no usable C compiler";
  const Netlist nl = make_iscas85_like("c432", 1);
  NativeOptions opts;
  opts.compile_flags = "-O0";
  opts.cache_dir = fresh_dir("load");

  // Populate the cache with a good build, then flip a bit of the ELF magic
  // in place so dlopen must reject the entry.
  const Program p = facade_base_program(nl);
  { const NativeModule good(p, "parallel-combined", opts); }
  const std::string so = facade_cached_so(nl, opts.cache_dir);
  ASSERT_TRUE(fs::exists(so));
  {
    std::fstream f(so, std::ios::in | std::ios::out | std::ios::binary);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(0);
    f.write(&byte, 1);
  }

  MetricsRegistry reg;
  const NativeModule mod(p, "parallel-combined", opts, &reg);
  EXPECT_FALSE(mod.from_cache()) << "recovery must rebuild, not reuse";
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.at("native.cache.corrupt"), 1u);
  EXPECT_EQ(snap.at("native.cache.hit"), 1u);   // the poisoned probe
  EXPECT_EQ(snap.at("native.cache.miss"), 1u);  // the recovery rebuild
  // The rebuilt object is the real kernel: entry points resolve and run.
  std::vector<std::uint32_t> arena(p.arena_words, 0xdeadbeefu);
  mod.init(arena.data());
  const std::vector<std::uint32_t> in(p.input_words, 0);
  mod.kernel<std::uint32_t>()(arena.data(), in.data());

  // A second construction is a clean hit of the recovered entry.
  MetricsRegistry reg2;
  const NativeModule again(p, "parallel-combined", opts, &reg2);
  EXPECT_TRUE(again.from_cache());
  EXPECT_EQ(reg2.snapshot().count("native.cache.corrupt"), 0u);
}

// Same recovery when dlopen succeeds but dlsym cannot resolve the entry
// points (a valid shared object that is not ours at the cache path).
TEST(NativeFallbackTest, WrongSymbolCachedObjectIsEvictedAndRebuilt) {
  NativeOptions opts;
  if (!native_available(opts)) GTEST_SKIP() << "no usable C compiler";
  const Netlist nl = make_iscas85_like("c432", 1);
  opts.compile_flags = "-O0";
  opts.cache_dir = fresh_dir("symbol");

  // Hand-plant a valid shared object with the wrong symbols at the exact
  // cache path the backend will probe: dlopen succeeds, dlsym must not.
  const std::string so = facade_cached_so(nl, opts.cache_dir);
  const std::string src = opts.cache_dir + "/decoy.c";
  { std::ofstream(src) << "int udsim_decoy_symbol;\n"; }
  const std::string cmd = resolved_compiler(opts) + " -shared -fPIC -o \"" +
                          so + "\" \"" + src + "\"";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

  MetricsRegistry reg;
  const NativeModule mod(facade_base_program(nl), "parallel-combined", opts,
                         &reg);
  EXPECT_FALSE(mod.from_cache());
  EXPECT_EQ(reg.snapshot().at("native.cache.corrupt"), 1u);
}

// A *freshly built* object that dlopen rejects is a real Load-stage failure
// (nothing left to retry against) — the taxonomy contract of §5h survives
// the recovery path. A fake compiler that exits 0 but emits garbage forces
// it deterministically.
TEST(NativeFallbackTest, FreshBuildLoadFailureStillEscapes) {
  const Netlist nl = make_iscas85_like("c432", 1);
  NativeOptions opts;
  opts.cache_dir = fresh_dir("freshload");
  opts.compiler = write_fake_cc(opts.cache_dir,
                                "out=\n"
                                "while [ $# -gt 0 ]; do\n"
                                "  if [ \"$1\" = \"-o\" ]; then out=$2; shift; fi\n"
                                "  shift\n"
                                "done\n"
                                "[ -n \"$out\" ] && echo garbage > \"$out\"\n"
                                "exit 0\n");
  try {
    NativeModule mod(facade_base_program(nl), "parallel-combined", opts);
    FAIL() << "expected NativeError";
  } catch (const NativeError& e) {
    EXPECT_EQ(e.stage(), NativeStage::Load);
    EXPECT_EQ(std::string(e.what()).find("[cached object]"), std::string::npos)
        << "a fresh build must not be blamed on the cache: " << e.what();
  }
  expect_structured_fallback(nl, opts, NativeStage::Load);
}

// A freshly built object missing the entry points fails the Symbol stage —
// a fake compiler that builds a decoy source instead of ours forces it.
TEST(NativeFallbackTest, FreshBuildSymbolFailureStillEscapes) {
  NativeOptions probe;
  if (!native_available(probe)) GTEST_SKIP() << "no usable C compiler";
  const Netlist nl = make_iscas85_like("c432", 1);
  NativeOptions opts;
  opts.cache_dir = fresh_dir("freshsymbol");
  opts.compiler = write_fake_cc(
      opts.cache_dir,
      "out=\n"
      "while [ $# -gt 0 ]; do\n"
      "  if [ \"$1\" = \"-o\" ]; then out=$2; shift; fi\n"
      "  shift\n"
      "done\n"
      "if [ -n \"$out\" ]; then\n"
      "  echo 'int udsim_decoy_symbol;' > \"$out.decoy.c\"\n"
      "  exec " +
          resolved_compiler(probe) + " -shared -fPIC -o \"$out\" \"$out.decoy.c\"\n"
          "fi\n"
          "exit 0\n");
  try {
    NativeModule mod(facade_base_program(nl), "parallel-combined", opts);
    FAIL() << "expected NativeError";
  } catch (const NativeError& e) {
    EXPECT_EQ(e.stage(), NativeStage::Symbol);
    EXPECT_NE(std::string(e.what()).find("udsim_kernel"), std::string::npos);
  }
  expect_structured_fallback(nl, opts, NativeStage::Symbol);
}

TEST(NativeFallbackTest, StageNamesAreStable) {
  // The stage names are part of the diagnostic surface (DESIGN.md §5h).
  EXPECT_EQ(native_stage_name(NativeStage::Emit), "emit");
  EXPECT_EQ(native_stage_name(NativeStage::Compile), "compile");
  EXPECT_EQ(native_stage_name(NativeStage::Cache), "cache");
  EXPECT_EQ(native_stage_name(NativeStage::Load), "load");
  EXPECT_EQ(native_stage_name(NativeStage::Symbol), "symbol");
}

}  // namespace
}  // namespace udsim
