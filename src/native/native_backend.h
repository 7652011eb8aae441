// Native-code backend (DESIGN.md §5h): emit a compiled Program as C through
// ir/c_emitter's batch-entry mode, run the system C compiler in a sandboxed
// subprocess (resilience/subprocess.h — argv-based fork/exec, no shell,
// full stderr capture, wall-clock timeout with SIGTERM→SIGKILL escalation),
// and dlopen the resulting shared object — the out-of-process realization
// of the paper's premise that compiled simulation is just straight-line
// machine code. The in-process IR executor stays the semantic reference:
// every NativeModule is differentially tested bit-identical against
// execute<Word> (tests/native_backend_test.cpp), and every failure in the
// emit → compile → cache → dlopen → dlsym pipeline surfaces as a structured
// NativeError so the engine fallback chain can drop to the IR path instead
// of guessing — including a hung compiler, which is killed at
// NativeOptions::compile_timeout and surfaces as a Compile-stage error with
// timed_out() set.
#pragma once

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "ir/program.h"
#include "obs/metrics.h"

namespace udsim {

/// Pipeline stage a native build failed in — the failure taxonomy of
/// DESIGN.md §5h. Each stage has a forced-failure test
/// (tests/native_fallback_test.cpp) proving the fallback chain catches it.
enum class NativeStage : std::uint8_t {
  Emit,     ///< C source generation / temp-file write failed
  Compile,  ///< the external compiler was missing or returned non-zero
  Cache,    ///< cache directory unusable (not creatable / not writable)
  Load,     ///< dlopen rejected the shared object (e.g. corrupted cache entry)
  Symbol,   ///< dlsym could not resolve an entry point
};

[[nodiscard]] std::string_view native_stage_name(NativeStage s) noexcept;

/// Structured failure of the native pipeline. Deliberately NOT derived from
/// BudgetExceeded: a missing compiler is an environment problem, not a
/// resource-limit problem, and the fallback chain records it as
/// DiagCode::NativeFallback instead of a budget downgrade.
class NativeError : public std::runtime_error {
 public:
  NativeError(NativeStage stage, std::string detail, bool timed_out = false);
  [[nodiscard]] NativeStage stage() const noexcept { return stage_; }
  /// True when the failure was the compile-timeout kill, not a compiler
  /// verdict — the one NativeError a retry can plausibly cure, so the
  /// fault classifier (resilience/resilient_run.h) treats it as transient
  /// while every other NativeError is deterministic.
  [[nodiscard]] bool timed_out() const noexcept { return timed_out_; }

 private:
  NativeStage stage_;
  bool timed_out_;
};

/// Knobs of the native pipeline. Empty strings defer to the environment
/// (README "Native backend"): UDSIM_CC, UDSIM_CC_FLAGS, UDSIM_NATIVE_CACHE.
struct NativeOptions {
  /// C compiler driver; "" = $UDSIM_CC, else "cc". Executed directly
  /// (fork/exec through PATH, no shell) — like `compile_flags`, trusted
  /// local configuration, never request-derived data.
  std::string compiler;
  /// Flags before the fixed `-shared -fPIC -o`; "" = $UDSIM_CC_FLAGS, else "-O2".
  /// Split on whitespace into separate arguments (split_command); shell
  /// metacharacters and quoting are NOT interpreted.
  std::string compile_flags;
  /// Wall-clock limit for one external-compiler run; on expiry the
  /// compiler's process group is killed (SIGTERM→SIGKILL) and the build
  /// fails as a Compile-stage NativeError with timed_out() set, plus a
  /// `native.compile_timeout` counter. Zero = unlimited. The default is
  /// sized for hang protection, not pacing: a legitimate -O2 compile of
  /// the largest ISCAS profile takes ~1 min on a loaded machine, and
  /// killing a slow-but-live compiler costs a whole engine tier.
  std::chrono::nanoseconds compile_timeout{std::chrono::seconds(300)};
  /// Wall-clock limit for the native_available() `--version` probe, so a
  /// wedged compiler cannot hang policy construction. Zero = unlimited.
  std::chrono::nanoseconds probe_timeout{std::chrono::seconds(5)};
  /// Byte cap on the captured compiler stderr carried inside a
  /// Compile-stage NativeError (the full multi-line message up to the cap,
  /// not just the first line).
  std::size_t stderr_cap = 8192;
  /// Compiled-object cache directory; "" = $UDSIM_NATIVE_CACHE, else
  /// <system tmp>/udsim-native-cache.
  std::string cache_dir;
  /// Reuse cached shared objects (keyed by program fingerprint × engine ×
  /// word size). Off = always rebuild into a fresh temp path.
  bool use_cache = true;
  /// Oldest cache entries are evicted beyond this count (0 = unbounded).
  std::size_t max_cache_entries = 64;
  /// Keep the generated .c next to the .so (mismatch forensics).
  bool keep_source = false;
};

/// Option/environment resolution (exposed for tests and diagnostics).
[[nodiscard]] std::string resolved_compiler(const NativeOptions& opts);
[[nodiscard]] std::string resolved_cache_dir(const NativeOptions& opts);

/// True when the resolved compiler responds to `--version` — the cheap
/// availability probe tests use to skip rather than fail on bare machines.
/// Runs through the sandboxed subprocess runner with
/// NativeOptions::probe_timeout, so a hung compiler makes this return
/// false instead of blocking the caller.
[[nodiscard]] bool native_available(const NativeOptions& opts = {});

/// FNV-1a over every semantically meaningful field of the program (ops
/// field-by-field — Op has padding bytes — plus arena geometry, word size
/// and init words; symbolic names excluded). Two programs with equal
/// fingerprints generate identical C.
[[nodiscard]] std::uint64_t program_fingerprint(const Program& p) noexcept;

/// Cache-entry stem: `<fingerprint hex>-<engine label>-w<word_bits>`.
[[nodiscard]] std::string native_cache_key(const Program& p,
                                           std::string_view engine_label);

/// One emitted + compiled + dlopen'd program. Construction runs the full
/// pipeline (or takes a cache hit) and throws NativeError on any stage;
/// destruction dlcloses. The entry points operate on a caller-owned arena,
/// so one module serves any number of independent arenas.
class NativeModule {
 public:
  /// `engine_label` names the base compiler for the cache key (e.g. "lcc",
  /// "pcset", "parallel-combined"). Counters (when `metrics` is non-null):
  /// native.builds, native.cache.{hit,miss,evicted,corrupt}, and a
  /// native.compile trace span around the external compiler invocation.
  /// A cached object that dlopen/dlsym rejects (truncated or bit-flipped on
  /// disk) is treated as a cache miss: the entry is evicted, the program is
  /// recompiled, and native.cache.corrupt is bumped — corruption of the
  /// on-disk cache never surfaces as a hard failure.
  NativeModule(const Program& p, std::string_view engine_label,
               const NativeOptions& opts = {}, MetricsRegistry* metrics = nullptr);
  ~NativeModule();
  NativeModule(const NativeModule&) = delete;
  NativeModule& operator=(const NativeModule&) = delete;

  /// Zero `arena` and apply the program's constant init words
  /// (`udsim_kernel_init`).
  template <class Word>
  void init(Word* arena) const {
    check_word_bits(sizeof(Word) * 8);
    reinterpret_cast<void (*)(Word*)>(fn_init_)(arena);
  }

  /// The one-pass entry point (`udsim_kernel`) as a KernelRunner pass
  /// kernel: `in` is one word per program input.
  template <class Word>
  [[nodiscard]] PassKernel<Word> kernel() const {
    check_word_bits(sizeof(Word) * 8);
    return reinterpret_cast<PassKernel<Word>>(fn_step_);
  }

  /// Whole-stream entry (`udsim_kernel_run`): runs `n_vectors` row-major
  /// vectors of `input_words` words each against one arena — final state
  /// only, one call, no per-vector FFI. The engine itself never uses it: a
  /// batch samples outputs after every pass, through kernel().
  template <class Word>
  void run(Word* arena, const Word* in, std::uint64_t n_vectors) const {
    check_word_bits(sizeof(Word) * 8);
    reinterpret_cast<void (*)(Word*, const Word*, std::uint64_t)>(fn_run_)(
        arena, in, n_vectors);
  }

  [[nodiscard]] const std::string& so_path() const noexcept { return so_path_; }
  /// Generated C source path; empty unless NativeOptions::keep_source.
  [[nodiscard]] const std::string& source_path() const noexcept {
    return source_path_;
  }
  [[nodiscard]] bool from_cache() const noexcept { return from_cache_; }
  [[nodiscard]] int word_bits() const noexcept { return word_bits_; }

 private:
  void check_word_bits(std::size_t bits) const;
  /// dlopen so_path_ and resolve the three entry points; throws
  /// NativeError(Load|Symbol) with handle_ left null on failure.
  void open_module();

  void* handle_ = nullptr;
  void* fn_init_ = nullptr;
  void* fn_step_ = nullptr;
  void* fn_run_ = nullptr;
  std::string so_path_;
  std::string source_path_;
  bool from_cache_ = false;
  int word_bits_ = 32;
};

}  // namespace udsim
