// Wide arena words for the bit-parallel executors (DESIGN.md §5j).
//
// The compilers are word-size agnostic — `word_bits` parameterizes every
// shift immediate and field layout — so widening a pass is purely an
// executor concern. 128-bit words ride the compiler's native __int128;
// 256-bit words are four uint64 lanes with exactly the operator set the op
// vocabulary needs (bitwise logic, shifts by 0..255, borrow subtraction for
// the `0 - x` broadcast and `(1 << imm) - 1` mask idioms). The hot u256
// executors are instantiated only in ir/kernels_w256.cpp, the TU the build
// compiles with -mavx2 when the toolchain has it, so the lane loops
// vectorize to 256-bit instructions without leaking AVX2 code into TUs that
// must run everywhere.
#pragma once

#include <cstddef>
#include <cstdint>

namespace udsim {

#if defined(__SIZEOF_INT128__)
#define UDSIM_HAS_W128 1
using u128 = unsigned __int128;
#else
#define UDSIM_HAS_W128 0
#endif

/// 256-bit unsigned word, little-endian uint64 lanes (lane[0] = bits 0..63).
/// Implicitly constructible from uint64 like the built-in widths, so the
/// templated engines' `in_.assign(n, 0)` / `word & 1u` idioms compile
/// unchanged.
struct alignas(32) u256 {
  std::uint64_t lane[4];

  constexpr u256() noexcept : lane{0, 0, 0, 0} {}
  // NOLINTNEXTLINE(google-explicit-constructor): mirrors built-in widening
  constexpr u256(std::uint64_t low) noexcept : lane{low, 0, 0, 0} {}
  constexpr u256(std::uint64_t l0, std::uint64_t l1, std::uint64_t l2,
                 std::uint64_t l3) noexcept
      : lane{l0, l1, l2, l3} {}

  friend constexpr bool operator==(const u256&, const u256&) noexcept = default;

  friend constexpr u256 operator~(const u256& x) noexcept {
    return {~x.lane[0], ~x.lane[1], ~x.lane[2], ~x.lane[3]};
  }
  friend constexpr u256 operator&(const u256& a, const u256& b) noexcept {
    return {a.lane[0] & b.lane[0], a.lane[1] & b.lane[1], a.lane[2] & b.lane[2],
            a.lane[3] & b.lane[3]};
  }
  friend constexpr u256 operator|(const u256& a, const u256& b) noexcept {
    return {a.lane[0] | b.lane[0], a.lane[1] | b.lane[1], a.lane[2] | b.lane[2],
            a.lane[3] | b.lane[3]};
  }
  friend constexpr u256 operator^(const u256& a, const u256& b) noexcept {
    return {a.lane[0] ^ b.lane[0], a.lane[1] ^ b.lane[1], a.lane[2] ^ b.lane[2],
            a.lane[3] ^ b.lane[3]};
  }
  constexpr u256& operator&=(const u256& o) noexcept {
    for (int i = 0; i < 4; ++i) lane[i] &= o.lane[i];
    return *this;
  }
  constexpr u256& operator|=(const u256& o) noexcept {
    for (int i = 0; i < 4; ++i) lane[i] |= o.lane[i];
    return *this;
  }
  constexpr u256& operator^=(const u256& o) noexcept {
    for (int i = 0; i < 4; ++i) lane[i] ^= o.lane[i];
    return *this;
  }

  /// Shift count must be < 256 (the validator bounds every immediate).
  friend constexpr u256 operator<<(const u256& x, unsigned s) noexcept {
    u256 r;
    const unsigned ws = s >> 6, bs = s & 63u;
    for (unsigned i = ws; i < 4; ++i) {
      std::uint64_t v = x.lane[i - ws] << bs;
      if (bs != 0 && i - ws > 0) v |= x.lane[i - ws - 1] >> (64 - bs);
      r.lane[i] = v;
    }
    return r;
  }
  friend constexpr u256 operator>>(const u256& x, unsigned s) noexcept {
    u256 r;
    const unsigned ws = s >> 6, bs = s & 63u;
    for (unsigned i = 0; i + ws < 4; ++i) {
      std::uint64_t v = x.lane[i + ws] >> bs;
      if (bs != 0 && i + ws + 1 < 4) v |= x.lane[i + ws + 1] << (64 - bs);
      r.lane[i] = v;
    }
    return r;
  }

  friend constexpr u256 operator-(const u256& a, const u256& b) noexcept {
    u256 r;
    std::uint64_t borrow = 0;
    for (int i = 0; i < 4; ++i) {
      const std::uint64_t d = a.lane[i] - b.lane[i];
      std::uint64_t out = a.lane[i] < b.lane[i];
      r.lane[i] = d - borrow;
      out |= d < borrow;
      borrow = out;
    }
    return r;
  }
};

/// Eight independent 32-bit arena words in one 256-bit register: the word
/// lanes of BatchRunner (DESIGN.md §5c). Lane k of every arena word belongs
/// to lane k's own 32-bit arena, so every operator — shifts and subtraction
/// included — acts lane by lane and nothing carries between lanes.
/// Construction from an integer broadcasts its low 32 bits, so `Word{1}`,
/// `Word{0} - x` and init_word_value mean in each lane exactly what they
/// mean for uint32_t. Plain lane loops, like u256: the -mavx2 executor TU
/// (ir/kernels_w256.cpp) vectorizes them to one instruction per op.
struct alignas(32) u32x8 {
  std::uint32_t lane[8];

  constexpr u32x8() noexcept : lane{} {}
  // NOLINTNEXTLINE(google-explicit-constructor): mirrors built-in widening
  constexpr u32x8(std::uint64_t x) noexcept : lane{} {
    for (std::uint32_t& l : lane) l = static_cast<std::uint32_t>(x);
  }

  friend constexpr bool operator==(const u32x8&, const u32x8&) noexcept = default;

#define UDSIM_U32X8_BINARY(OP)                                                 \
  friend constexpr u32x8 operator OP(const u32x8& a, const u32x8& b) noexcept { \
    u32x8 r;                                                                   \
    for (int i = 0; i < 8; ++i) r.lane[i] = a.lane[i] OP b.lane[i];            \
    return r;                                                                  \
  }                                                                            \
  constexpr u32x8& operator OP##=(const u32x8& o) noexcept {                   \
    for (int i = 0; i < 8; ++i) lane[i] OP## = o.lane[i];                      \
    return *this;                                                              \
  }
  UDSIM_U32X8_BINARY(&)
  UDSIM_U32X8_BINARY(|)
  UDSIM_U32X8_BINARY(^)
  UDSIM_U32X8_BINARY(-)
#undef UDSIM_U32X8_BINARY

  friend constexpr u32x8 operator~(const u32x8& x) noexcept {
    u32x8 r;
    for (int i = 0; i < 8; ++i) r.lane[i] = ~x.lane[i];
    return r;
  }
  /// Shift count must be < 32 (the validator bounds every immediate).
  friend constexpr u32x8 operator<<(const u32x8& x, unsigned s) noexcept {
    u32x8 r;
    for (int i = 0; i < 8; ++i) r.lane[i] = x.lane[i] << s;
    return r;
  }
  friend constexpr u32x8 operator>>(const u32x8& x, unsigned s) noexcept {
    u32x8 r;
    for (int i = 0; i < 8; ++i) r.lane[i] = x.lane[i] >> s;
    return r;
  }
};

/// Bits of one arena word as the program sees it: the shift width of the
/// executors and the program word size a runner accepts. A u32x8 is eight
/// 32-bit words side by side.
template <class Word>
inline constexpr unsigned kWordBits = sizeof(Word) * 8;
template <>
inline constexpr unsigned kWordBits<u32x8> = 32;

/// Independent arenas one runner word carries side by side (word lanes).
template <class Word>
inline constexpr unsigned kWordLanes = 1;
template <>
inline constexpr unsigned kWordLanes<u32x8> = 8;

/// uint64 lanes one arena word occupies in the word-size-independent
/// checkpoint carrier (KernelRunner::save_arena, resilience/checkpoint.h):
/// one lane for 32/64-bit words, two for 128, four for 256.
template <class Word>
inline constexpr std::size_t kWordU64Lanes = (sizeof(Word) + 7) / 8;

template <class Word>
[[nodiscard]] constexpr std::uint64_t word_u64_lane(const Word& w,
                                                    std::size_t lane) noexcept {
  if constexpr (sizeof(Word) <= 8) {
    (void)lane;
    return static_cast<std::uint64_t>(w);
  } else if constexpr (sizeof(Word) == 16) {
    return static_cast<std::uint64_t>(w >> (lane * 64));
  } else {
    return w.lane[lane];
  }
}

template <class Word>
[[nodiscard]] constexpr Word word_from_u64_lanes(
    const std::uint64_t* lanes) noexcept {
  if constexpr (sizeof(Word) <= 8) {
    return static_cast<Word>(lanes[0]);
  } else if constexpr (sizeof(Word) == 16) {
    return static_cast<Word>((static_cast<Word>(lanes[1]) << 64) | lanes[0]);
  } else {
    return Word{lanes[0], lanes[1], lanes[2], lanes[3]};
  }
}

/// Bit `pos` of an arena word (pos < 8 * sizeof(Word)).
template <class Word>
[[nodiscard]] constexpr unsigned word_bit(const Word& w, unsigned pos) noexcept {
  return static_cast<unsigned>(word_u64_lane(w, pos >> 6) >> (pos & 63u)) & 1u;
}

/// Arena-init literal semantics (ir/program.h): InitWord.value is a 64-bit
/// carrier where all-ones means "all ones at the executor's width"; any
/// other value zero-extends. At 32/64 bits this coincides with the plain
/// truncation the executors always did, so narrow programs are unchanged;
/// at 128/256 bits it keeps the compilers' constant-one nets all-ones
/// across the whole word.
template <class Word>
[[nodiscard]] constexpr Word init_word_value(std::uint64_t v) noexcept {
  if (v == ~std::uint64_t{0}) return static_cast<Word>(~Word{0});
  return static_cast<Word>(v);
}

}  // namespace udsim
