// Executor for straight-line programs.
//
// `execute` runs one input vector through the program: a single pass over
// the op vector — the in-process equivalent of the paper's compiled C code
// (see ir/c_emitter.h for the out-of-process equivalent, and
// bench/ablation_emitted_c for the comparison of the two). Compiled
// programs are run-ordered (ir/schedule.h): their ops come in runs of one
// opcode, and each threaded handler loops over its run, so dispatch costs
// one indirect jump per run rather than one per op.
#pragma once

#include <cassert>
#include <span>

#include "ir/program.h"
#include "ir/wide_word.h"

namespace udsim {

/// Fill the arena's constant words. Call once before the first vector and
/// after any external reset of the arena. Init values widen per
/// init_word_value: the ~0 carrier means all-ones at the executor's width.
template <class Word>
void initialize_arena(const Program& p, std::span<Word> arena) {
  assert(arena.size() >= p.arena_words);
  for (const Program::InitWord& iw : p.arena_init) {
    arena[iw.index] = init_word_value<Word>(iw.value);
  }
}

/// Reference dispatch: one switch per op. Always available; the threaded
/// `execute` is checked against it (tests/ir_test.cpp) and non-GNU builds
/// fall back to it.
template <class Word>
void execute_switch(const Program& p, std::span<const Word> in, std::span<Word> arena) {
  static_assert(sizeof(Word) == 4 || sizeof(Word) == 8 || sizeof(Word) == 16 ||
                sizeof(Word) == 32);
  assert(static_cast<int>(kWordBits<Word>) == p.word_bits);
  assert(in.size() >= p.input_words);
  assert(arena.size() >= p.arena_words);
  constexpr unsigned W = kWordBits<Word>;
  Word* const w = arena.data();
  const Word* const iv = in.data();
  for (const Op& op : p.ops) {
    switch (op.code) {
      case OpCode::Const:
        w[op.dst] = op.imm ? static_cast<Word>(~Word{0}) : Word{0};
        break;
      case OpCode::Copy:
        w[op.dst] = w[op.a];
        break;
      case OpCode::Not:
        w[op.dst] = static_cast<Word>(~w[op.a]);
        break;
      case OpCode::And:
        w[op.dst] = w[op.a] & w[op.b];
        break;
      case OpCode::Or:
        w[op.dst] = w[op.a] | w[op.b];
        break;
      case OpCode::Xor:
        w[op.dst] = w[op.a] ^ w[op.b];
        break;
      case OpCode::Nand:
        w[op.dst] = static_cast<Word>(~(w[op.a] & w[op.b]));
        break;
      case OpCode::Nor:
        w[op.dst] = static_cast<Word>(~(w[op.a] | w[op.b]));
        break;
      case OpCode::Xnor:
        w[op.dst] = static_cast<Word>(~(w[op.a] ^ w[op.b]));
        break;
      case OpCode::AccAnd:
        w[op.dst] &= w[op.a];
        break;
      case OpCode::AccOr:
        w[op.dst] |= w[op.a];
        break;
      case OpCode::AccXor:
        w[op.dst] ^= w[op.a];
        break;
      case OpCode::MaskedCopy:
        w[op.dst] = static_cast<Word>((w[op.dst] & ~w[op.b]) | (w[op.a] & w[op.b]));
        break;
      case OpCode::LoadBit:
        w[op.dst] = iv[op.a] & Word{1};
        break;
      case OpCode::LoadBcast:
        w[op.dst] = static_cast<Word>(Word{0} - (iv[op.a] & Word{1}));
        break;
      case OpCode::LoadWord:
        w[op.dst] = iv[op.a];
        break;
      case OpCode::ExtractBit:
        w[op.dst] = (w[op.a] >> op.imm) & Word{1};
        break;
      case OpCode::BcastBit:
        w[op.dst] = static_cast<Word>(Word{0} - ((w[op.a] >> op.imm) & Word{1}));
        break;
      case OpCode::Shl:
        w[op.dst] = static_cast<Word>(w[op.a] << op.imm);
        break;
      case OpCode::Shr:
        w[op.dst] = static_cast<Word>(w[op.a] >> op.imm);
        break;
      case OpCode::ShlOr:
        w[op.dst] |= static_cast<Word>(w[op.a] << op.imm);
        break;
      case OpCode::MaskShlOr:
        w[op.dst] = static_cast<Word>(
            (w[op.dst] & ((Word{1} << op.imm) - 1)) | (w[op.a] << op.imm));
        break;
      case OpCode::FunnelL:
        w[op.dst] = static_cast<Word>((w[op.a] << op.imm) | (w[op.b] >> (W - op.imm)));
        break;
      case OpCode::FunnelR:
        w[op.dst] = static_cast<Word>((w[op.a] >> op.imm) | (w[op.b] << (W - op.imm)));
        break;
    }
  }
}

template <class Word>
void execute(const Program& p, std::span<const Word> in, std::span<Word> arena) {
  static_assert(sizeof(Word) == 4 || sizeof(Word) == 8 || sizeof(Word) == 16 ||
                sizeof(Word) == 32);
  assert(static_cast<int>(kWordBits<Word>) == p.word_bits);
  assert(in.size() >= p.input_words);
  assert(arena.size() >= p.arena_words);
  constexpr unsigned W = kWordBits<Word>;
  Word* const w = arena.data();
  const Word* const iv = in.data();

#if defined(__GNUC__) && !defined(UDSIM_NO_COMPUTED_GOTO)
  // Threaded-code dispatch (the technique of the paper's reference [8],
  // used by the tortle.c simulator it cites) over run-ordered programs.
  // Every compiler ends with schedule_runs (ir/schedule.h), which groups the
  // ops into runs of one opcode, so each handler is a loop over its run and
  // the one indirect jump per run goes to the next run's handler. Programs
  // not run-ordered (fault-forced copies, hand-built ones) execute the same,
  // with shorter runs.
  static const void* const kLabels[] = {
      &&l_Const,      &&l_Copy,    &&l_Not,     &&l_And,     &&l_Or,
      &&l_Xor,        &&l_Nand,    &&l_Nor,     &&l_Xnor,    &&l_AccAnd,
      &&l_AccOr,      &&l_AccXor,  &&l_MaskedCopy, &&l_LoadBit,
      &&l_LoadBcast,  &&l_LoadWord, &&l_ExtractBit, &&l_BcastBit,
      &&l_Shl,        &&l_Shr,     &&l_ShlOr,   &&l_MaskShlOr,
      &&l_FunnelL,    &&l_FunnelR};
  static_assert(sizeof(kLabels) / sizeof(kLabels[0]) ==
                    static_cast<std::size_t>(OpCode::FunnelR) + 1,
                "label table must cover every opcode in enum order");
  const Op* op = p.ops.data();
  const Op* const end = op + p.ops.size();
  if (op == end) return;
#define UDSIM_RUN(X, ...)                                      \
  l_##X:                                                       \
  do {                                                         \
    __VA_ARGS__;                                               \
  } while (++op != end && op->code == OpCode::X);              \
  if (op == end) return;                                       \
  goto* kLabels[static_cast<std::uint8_t>(op->code)];
  goto* kLabels[static_cast<std::uint8_t>(op->code)];
  UDSIM_RUN(Const, w[op->dst] = op->imm ? static_cast<Word>(~Word{0}) : Word{0})
  UDSIM_RUN(Copy, w[op->dst] = w[op->a])
  UDSIM_RUN(Not, w[op->dst] = static_cast<Word>(~w[op->a]))
  UDSIM_RUN(And, w[op->dst] = w[op->a] & w[op->b])
  UDSIM_RUN(Or, w[op->dst] = w[op->a] | w[op->b])
  UDSIM_RUN(Xor, w[op->dst] = w[op->a] ^ w[op->b])
  UDSIM_RUN(Nand, w[op->dst] = static_cast<Word>(~(w[op->a] & w[op->b])))
  UDSIM_RUN(Nor, w[op->dst] = static_cast<Word>(~(w[op->a] | w[op->b])))
  UDSIM_RUN(Xnor, w[op->dst] = static_cast<Word>(~(w[op->a] ^ w[op->b])))
  UDSIM_RUN(AccAnd, w[op->dst] &= w[op->a])
  UDSIM_RUN(AccOr, w[op->dst] |= w[op->a])
  UDSIM_RUN(AccXor, w[op->dst] ^= w[op->a])
  UDSIM_RUN(MaskedCopy, w[op->dst] = static_cast<Word>((w[op->dst] & ~w[op->b]) |
                                                        (w[op->a] & w[op->b])))
  UDSIM_RUN(LoadBit, w[op->dst] = iv[op->a] & Word{1})
  UDSIM_RUN(LoadBcast, w[op->dst] = static_cast<Word>(Word{0} - (iv[op->a] & Word{1})))
  UDSIM_RUN(LoadWord, w[op->dst] = iv[op->a])
  UDSIM_RUN(ExtractBit, w[op->dst] = (w[op->a] >> op->imm) & Word{1})
  UDSIM_RUN(BcastBit, w[op->dst] = static_cast<Word>(
                          Word{0} - ((w[op->a] >> op->imm) & Word{1})))
  UDSIM_RUN(Shl, w[op->dst] = static_cast<Word>(w[op->a] << op->imm))
  UDSIM_RUN(Shr, w[op->dst] = static_cast<Word>(w[op->a] >> op->imm))
  UDSIM_RUN(ShlOr, w[op->dst] |= static_cast<Word>(w[op->a] << op->imm))
  UDSIM_RUN(MaskShlOr, w[op->dst] = static_cast<Word>(
                           (w[op->dst] & ((Word{1} << op->imm) - 1)) |
                           (w[op->a] << op->imm)))
  UDSIM_RUN(FunnelL, w[op->dst] = static_cast<Word>((w[op->a] << op->imm) |
                                                    (w[op->b] >> (W - op->imm))))
  UDSIM_RUN(FunnelR, w[op->dst] = static_cast<Word>((w[op->a] >> op->imm) |
                                                    (w[op->b] << (W - op->imm))))
#undef UDSIM_RUN
#else
  execute_switch<Word>(p, in, arena);
#endif
}

// The hot u256 and u32x8 executors instantiate only in ir/kernels_w256.cpp
// — the TU the build compiles with -mavx2 when the toolchain supports it —
// so no other TU can inline 256-bit code it might not be allowed to run.
// Cold 256-bit paths (initialize_arena, KernelRunner bookkeeping) are
// portable lane loops and instantiate anywhere.
extern template void execute_switch<u256>(const Program&, std::span<const u256>,
                                          std::span<u256>);
extern template void execute<u256>(const Program&, std::span<const u256>,
                                   std::span<u256>);
extern template void execute<u32x8>(const Program&, std::span<const u32x8>,
                                    std::span<u32x8>);

}  // namespace udsim
