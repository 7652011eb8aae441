// Straight-line word-level programs: the "compiled code" of the paper.
//
// Each generated simulation is a flat vector of ops over a persistent word
// arena (net variables / bit-fields survive from vector to vector, exactly
// like the paper's C globals). One execution of the program simulates one
// input vector; there are no branches or queues — the defining property of
// Levelized Compiled Code simulation. Compilers hand back their ops
// run-ordered, grouped into runs of one opcode (ir/schedule.h).
//
// The same program text runs at any word size (32-bit to match the paper's
// word counts, 64/128/256-bit for the wide lanes); shift immediates are
// produced by the compilers for a specific word size, recorded in
// `word_bits`.
//
// A Program holds only what a pass reads, at its exact size: no names (the
// C emitter takes them from the compiled type) and no spare op capacity.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace udsim {

enum class OpCode : std::uint8_t {
  Const,       ///< dst = imm ? ~0 : 0
  Copy,        ///< dst = w[a]
  Not,         ///< dst = ~w[a]
  And,         ///< dst = w[a] & w[b]
  Or,          ///< dst = w[a] | w[b]
  Xor,         ///< dst = w[a] ^ w[b]
  Nand,        ///< dst = ~(w[a] & w[b])
  Nor,         ///< dst = ~(w[a] | w[b])
  Xnor,        ///< dst = ~(w[a] ^ w[b])
  AccAnd,      ///< dst &= w[a]
  AccOr,       ///< dst |= w[a]
  AccXor,      ///< dst ^= w[a]
  MaskedCopy,  ///< dst = (dst & ~w[b]) | (w[a] & w[b])
  LoadBit,     ///< dst = in[a] & 1
  LoadBcast,   ///< dst = all bits = (in[a] & 1)
  LoadWord,    ///< dst = in[a]
  ExtractBit,  ///< dst = (w[a] >> imm) & 1
  BcastBit,    ///< dst = all bits = ((w[a] >> imm) & 1)
  Shl,         ///< dst = w[a] << imm
  Shr,         ///< dst = w[a] >> imm        (logical)
  ShlOr,       ///< dst |= w[a] << imm
  MaskShlOr,   ///< dst = (dst & low_mask(imm)) | (w[a] << imm)
  FunnelL,     ///< dst = (w[a] << imm) | (w[b] >> (word_bits - imm)), 0<imm<word_bits
  FunnelR,     ///< dst = (w[a] >> imm) | (w[b] << (word_bits - imm)), 0<imm<word_bits
};

struct Op {
  OpCode code;
  std::uint8_t imm = 0;   ///< shift amount / bit index / constant selector
  std::uint32_t dst = 0;  ///< arena word index
  std::uint32_t a = 0;    ///< arena word index, or input index for Load*
  std::uint32_t b = 0;    ///< second arena word index where applicable
};
static_assert(sizeof(Op) == 16);

struct Program {
  std::vector<Op> ops;
  std::uint32_t arena_words = 0;
  std::uint32_t input_words = 0;  ///< size of the per-vector input span
  int word_bits = 32;             ///< word size the shift immediates assume

  /// Arena words with a fixed value established once before the first vector
  /// (constant nets, mask words). `value` is a 64-bit carrier: all-ones
  /// means all-ones at the executor's word size (so constant-one nets stay
  /// full-width at 128/256 bits); any other value zero-extends — identical
  /// to plain truncation at 32/64 bits. See init_word_value (ir/wide_word.h).
  struct InitWord {
    std::uint32_t index;
    std::uint64_t value;  ///< widened per init_word_value at execution time
  };
  std::vector<InitWord> arena_init;
};

/// The distinct arena words one op reads: `a` unless it is an input index
/// (Load*), `b` for two-operand and funnel ops, and `dst` for the
/// read-modify-write ops (Acc*, MaskedCopy, ShlOr, MaskShlOr).
struct OpReads {
  std::uint32_t word[3];
  int count = 0;
};

[[nodiscard]] constexpr OpReads arena_reads(const Op& op) noexcept {
  OpReads r{};
  const auto add = [&r](std::uint32_t w) {
    for (int i = 0; i < r.count; ++i) {
      if (r.word[i] == w) return;
    }
    r.word[r.count++] = w;
  };
  switch (op.code) {
    case OpCode::Const:
    case OpCode::LoadBit:
    case OpCode::LoadBcast:
    case OpCode::LoadWord:
      break;
    case OpCode::Copy:
    case OpCode::Not:
    case OpCode::ExtractBit:
    case OpCode::BcastBit:
    case OpCode::Shl:
    case OpCode::Shr:
      add(op.a);
      break;
    case OpCode::AccAnd:
    case OpCode::AccOr:
    case OpCode::AccXor:
    case OpCode::ShlOr:
    case OpCode::MaskShlOr:
      add(op.a);
      add(op.dst);
      break;
    case OpCode::MaskedCopy:
      add(op.a);
      add(op.b);
      add(op.dst);
      break;
    default:  // two-operand gates and funnel shifts
      add(op.a);
      add(op.b);
      break;
  }
  return r;
}

/// Location of one bit inside a compiled program's word arena. The compiled
/// engines expose the arena position of each net's settled value as an
/// ArenaProbe (final_arena_probe) so that engine-agnostic code — the batch
/// layer above all — can sample outputs without knowing the field layout.
struct ArenaProbe {
  std::uint32_t word = 0;
  std::uint8_t bit = 0;
};

/// One pass of a program as machine code: the emitted `udsim_kernel` entry
/// point (ir/c_emitter.h batch layout, native/native_backend.h), run
/// against a caller-owned arena with one word per program input. An
/// alternative executor to execute<Word>, which stays the reference.
template <class Word>
using PassKernel = void (*)(Word* arena, const Word* in);

/// True when one pass of `p` can settle word_bits independent input vectors
/// at once, one per bit lane, with `probes` reading each lane's result
/// (DESIGN.md §5c). All four must hold:
///   - every op is lane-wise (no LoadBit/LoadBcast/ExtractBit/BcastBit,
///     shift or funnel op), so lane i of a result depends on lane i only;
///   - every arena_init value is 0 or all-ones (the same in every lane);
///   - every probe reads bit 0;
///   - no probe depends, within one pass, on a word read before the pass
///     writes it — i.e. on state retained from the previous vector.
/// Stops at the first op that is not lane-wise, so every parallel-technique
/// program (op 0 is a broadcast load or bit broadcast) is rejected at op 0.
[[nodiscard]] bool lane_parallel(const Program& p,
                                 std::span<const ArenaProbe> probes);

}  // namespace udsim
