// Owns the persistent word arena of a compiled program and runs vectors
// through it. Shared by every compiled engine (LCC, PC-set, parallel, and
// the native backend, whose dlopen'd pass kernel replaces execute<Word>).
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "ir/executor.h"
#include "ir/program.h"
#include "netlist/diagnostics.h"
#include "netlist/logic.h"
#include "obs/pass_cost.h"
#include "resilience/cancel.h"

namespace udsim {

/// Allocator of arena words. An over-aligned word (u256) is placed by hand
/// inside a plain operator-new block instead of through aligned new: glibc
/// serves an aligned request by splitting slivers off the block's ends, and
/// small allocations reusing those slivers pin the freed block in place. A
/// pool worker's malloc arena then grew by one whole shard arena every few
/// 256-bit PC-set runs (2.3 MB on c6288), and kept it.
template <class T>
struct ArenaAllocator {
  using value_type = T;

  ArenaAllocator() = default;
  template <class U>
  ArenaAllocator(const ArenaAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    if constexpr (alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__) {
      return std::allocator<T>{}.allocate(n);
    } else {
      constexpr std::size_t kSlack = alignof(T) + sizeof(void*);
      if (n > (std::numeric_limits<std::size_t>::max() - kSlack) / sizeof(T)) {
        throw std::bad_array_new_length();
      }
      void* const raw = ::operator new(n * sizeof(T) + kSlack);
      // The first aligned address past room for the block's own pointer,
      // which is stored just below it for deallocate.
      const std::uintptr_t at =
          (reinterpret_cast<std::uintptr_t>(raw) + kSlack) & ~(alignof(T) - 1);
      reinterpret_cast<void**>(at)[-1] = raw;
      return reinterpret_cast<T*>(at);
    }
  }

  void deallocate(T* p, std::size_t n) noexcept {
    if constexpr (alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__) {
      std::allocator<T>{}.deallocate(p, n);
    } else {
      ::operator delete(reinterpret_cast<void**>(p)[-1]);
    }
  }

  template <class U>
  friend bool operator==(const ArenaAllocator&, const ArenaAllocator<U>&) noexcept {
    return true;
  }
};

/// A program compiled for one word size handed to a runner instantiated at
/// another. Carries both widths so callers can surface the mismatch as a
/// structured diagnostic (DiagCode::ProgramWordSize) instead of a bare
/// string.
class WordSizeMismatch : public std::invalid_argument {
 public:
  WordSizeMismatch(int program_bits, int runner_bits)
      : std::invalid_argument(
            "KernelRunner: program compiled for " +
            std::to_string(program_bits) + "-bit words, runner instantiated at " +
            std::to_string(runner_bits) + " bits"),
        program_bits_(program_bits),
        runner_bits_(runner_bits) {}
  [[nodiscard]] int program_bits() const noexcept { return program_bits_; }
  [[nodiscard]] int runner_bits() const noexcept { return runner_bits_; }

 private:
  int program_bits_;
  int runner_bits_;
};

template <class Word>
class KernelRunner {
 public:
  /// `diag`, when given, receives the structured record of a word-size
  /// mismatch before WordSizeMismatch is thrown.
  explicit KernelRunner(const Program& program, Diagnostics* diag = nullptr)
      : program_(program) {
    constexpr int kRunnerBits = static_cast<int>(kWordBits<Word>);
    if (program.word_bits != kRunnerBits) {
      const WordSizeMismatch err(program.word_bits, kRunnerBits);
      if (diag) {
        diag->report(DiagCode::ProgramWordSize, DiagSeverity::Error,
                     "KernelRunner", err.what());
      }
      throw err;
    }
    arena_.assign(program.arena_words, 0);
    initialize_arena<Word>(program, std::span<Word>(arena_));
  }

  /// Simulate one pass: `in` is one word per primary input (one vector in
  /// bit 0, or — for a lane_parallel program — one vector per bit lane;
  /// a u32x8 runner takes one vector per word lane, in each lane's bit 0).
  /// With a cancel token attached, a cancelled/deadline-expired token
  /// raises Cancelled *before* the pass starts, so the settled arena always
  /// reflects whole vectors. The pass runs the attached kernel (set_kernel)
  /// or, by default, execute<Word>.
  void run(std::span<const Word> in) {
    const StopReason r = poll_.poll();  // one dead branch when detached
    if (r != StopReason::None) throw Cancelled(r, "kernel.run", passes_ + 1);
    if (kernel_ != nullptr) {
      kernel_(arena_.data(), in.data());
    } else {
      execute<Word>(program_, in, arena_);
    }
    ++passes_;
    exec_.on_passes(1);  // single branch when no registry is attached
  }

  /// Attach (or detach, with nullptr) a metrics registry: every subsequent
  /// pass bumps the exact per-pass execution counters (sim.vectors,
  /// exec.ops, exec.words_*, ... — see obs/pass_cost.h). `extra_per_pass`
  /// adds engine-specific per-pass constants under the given counter names.
  void set_metrics(MetricsRegistry* reg, const PassExtras& extra_per_pass = {}) {
    exec_ = ExecCounters::attach(reg, program_, extra_per_pass);
  }

  [[nodiscard]] Word word(std::uint32_t idx) const { return arena_.at(idx); }
  [[nodiscard]] Bit bit(std::uint32_t idx, unsigned bit_pos) const {
    return static_cast<Bit>(word_bit(arena_.at(idx), bit_pos));
  }
  [[nodiscard]] std::span<const Word> arena() const noexcept { return arena_; }
  [[nodiscard]] const Program& program() const noexcept { return program_; }

  /// Attach (or detach, with nullptr) a cancel token; see run().
  void set_cancel(const CancelToken* token) noexcept { poll_ = CancelPoll(token); }

  /// Run every pass through `kernel` — machine code compiled from this
  /// runner's program (NativeModule::kernel) — instead of execute<Word>.
  /// Chosen once, before the first pass; nullptr restores execute<Word>.
  void set_kernel(PassKernel<Word> kernel) noexcept { kernel_ = kernel; }

  /// Vectors executed since construction/reset.
  [[nodiscard]] std::uint64_t passes() const noexcept { return passes_; }

  /// Copy the settled arena into a word-size-independent uint64 carrier
  /// (the checkpoint representation; DESIGN.md §5f). Wide words occupy
  /// kWordU64Lanes<Word> consecutive carrier entries, low lane first. A
  /// word-lane runner (kWordLanes<Word> > 1) saves lane `lane`'s own 32-bit
  /// arena, one entry per word, exactly as a uint32_t runner would.
  void save_arena(std::vector<std::uint64_t>& out, unsigned lane = 0) const {
    if constexpr (kWordLanes<Word> > 1) {
      out.resize(arena_.size());
      for (std::size_t i = 0; i < arena_.size(); ++i) out[i] = arena_[i].lane[lane];
    } else {
      constexpr std::size_t L = kWordU64Lanes<Word>;
      out.resize(arena_.size() * L);
      for (std::size_t i = 0; i < arena_.size(); ++i) {
        for (std::size_t l = 0; l < L; ++l) {
          out[i * L + l] = word_u64_lane(arena_[i], l);
        }
      }
    }
  }

  /// Restore an arena previously captured with save_arena — the one piece
  /// of cross-vector state, so a restored runner continues bit-identically.
  /// A word-lane runner restores lane `lane` only.
  void load_arena(std::span<const std::uint64_t> saved, unsigned lane = 0) {
    constexpr std::size_t L = kWordLanes<Word> > 1 ? 1 : kWordU64Lanes<Word>;
    if (saved.size() != arena_.size() * L) {
      throw std::invalid_argument("KernelRunner::load_arena: size mismatch");
    }
    for (std::size_t i = 0; i < arena_.size(); ++i) {
      if constexpr (kWordLanes<Word> > 1) {
        arena_[i].lane[lane] = static_cast<std::uint32_t>(saved[i]);
      } else {
        arena_[i] = word_from_u64_lanes<Word>(&saved[i * L]);
      }
    }
  }

  /// Mutable arena access for the fault-injection harness and tests; normal
  /// clients never need this.
  [[nodiscard]] std::span<Word> mutable_arena() noexcept { return arena_; }

  /// Clear state back to the post-construction arena.
  void reset() {
    arena_.assign(program_.arena_words, 0);
    initialize_arena<Word>(program_, std::span<Word>(arena_));
    passes_ = 0;
  }

 private:
  const Program& program_;
  std::vector<Word, ArenaAllocator<Word>> arena_;
  PassKernel<Word> kernel_ = nullptr;
  ExecCounters exec_;
  CancelPoll poll_{nullptr};
  std::uint64_t passes_ = 0;
};

}  // namespace udsim
