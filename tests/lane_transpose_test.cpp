// Lane-packed batch I/O (DESIGN.md §5c): BatchRunner feeds a lane-parallel
// pass by transposing a lane group's input rows into one word per input and
// drains it by reading every probe's lanes back out as rows, both in 8 × 8
// blocks with scalar tails. These hand-built programs put every tail at its
// edge — input and probe counts around multiples of 8 and the lane width,
// vector counts around a lane byte and a lane group — at every supported
// width and several thread counts, and hold each run to a one-vector-per-pass
// KernelRunner replay. A stream byte's bit 0 is the input: garbage in bits
// 1–7 must not change a row on either the lane-packed or the scalar path.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "core/batch_runner.h"
#include "core/kernel_runner.h"
#include "core/width_dispatch.h"
#include "ir/program.h"

namespace udsim {
namespace {

constexpr std::size_t kCounts[] = {1, 7, 8, 9, 63, 64, 65, 207};

/// `inputs` LoadWord ops, then one bitwise gate per probe over two of them.
/// With `retained`, one more probe reads the word the pass's last op writes
/// (the previous vector's input 0), so lane_parallel rejects the program and
/// BatchRunner takes its scalar path.
Program lane_program(std::size_t inputs, std::size_t probes, int word_bits,
                     bool retained) {
  constexpr OpCode kGates[] = {OpCode::And,  OpCode::Or,  OpCode::Xor,
                               OpCode::Nand, OpCode::Nor, OpCode::Xnor,
                               OpCode::Not,  OpCode::Copy};
  Program p;
  p.word_bits = word_bits;
  p.input_words = static_cast<std::uint32_t>(inputs);
  p.arena_words = static_cast<std::uint32_t>(inputs + probes + (retained ? 2 : 0));
  for (std::uint32_t i = 0; i < inputs; ++i) {
    p.ops.push_back({OpCode::LoadWord, 0, i, i, 0});
  }
  for (std::size_t j = 0; j < probes; ++j) {
    p.ops.push_back({kGates[j % 8], 0, static_cast<std::uint32_t>(inputs + j),
                     static_cast<std::uint32_t>(j % inputs),
                     static_cast<std::uint32_t>((j * 5 + 3) % inputs)});
  }
  if (retained) {
    const auto last = static_cast<std::uint32_t>(inputs + probes);
    p.ops.push_back({OpCode::Copy, 0, last, last + 1, 0});
    p.ops.push_back({OpCode::Copy, 0, last + 1, 0, 0});
  }
  return p;
}

/// Bit 0 of every gate's word, plus the retained-state word when present.
std::vector<ArenaProbe> probes_of(std::size_t inputs, std::size_t probes,
                                  bool retained) {
  std::vector<ArenaProbe> out;
  for (std::size_t j = 0; j < probes + (retained ? 1 : 0); ++j) {
    out.push_back({static_cast<std::uint32_t>(inputs + j), 0});
  }
  return out;
}

/// One vector per pass from the reset arena, at 32 bits: every op is
/// lane-wise, so bit 0 of the 32-bit program is each width's lane.
std::vector<Bit> replay(const Program& p32, const std::vector<ArenaProbe>& probes,
                        const std::vector<Bit>& in, std::size_t count) {
  KernelRunner<std::uint32_t> runner(p32);
  std::vector<std::uint32_t> row(p32.input_words);
  std::vector<Bit> out;
  for (std::size_t v = 0; v < count; ++v) {
    for (std::size_t i = 0; i < row.size(); ++i) row[i] = in[v * row.size() + i];
    runner.run(row);
    for (const ArenaProbe& pr : probes) out.push_back(runner.bit(pr.word, pr.bit));
  }
  return out;
}

TEST(BatchRunner, LanePackedTransposeEdgesMatchScalarRows) {
  std::mt19937_64 rng(19);
  for (const std::size_t inputs : kCounts) {
    for (const std::size_t probes : kCounts) {
      for (const int w : supported_widths()) {
        const std::size_t lanes = static_cast<std::size_t>(w);
        const Program packed = lane_program(inputs, probes, w, false);
        const Program scalar = lane_program(inputs, probes, w, true);
        const std::vector<ArenaProbe> packed_probes = probes_of(inputs, probes, false);
        const std::vector<ArenaProbe> scalar_probes = probes_of(inputs, probes, true);
        ASSERT_TRUE(lane_parallel(packed, packed_probes));
        ASSERT_FALSE(lane_parallel(scalar, scalar_probes));
        const std::size_t most = lanes + 1;
        // Exactly sized streams (no slack for an over-read to hide in): the
        // 0/1 stream and the same bits with garbage in bits 1-7.
        std::vector<Bit> clean(most * inputs), dirty(most * inputs);
        for (std::size_t k = 0; k < clean.size(); ++k) {
          const auto r = static_cast<Bit>(rng());
          clean[k] = r & 1u;
          dirty[k] = r | static_cast<Bit>(rng() & 0xfe);
        }
        const auto want_packed =
            replay(lane_program(inputs, probes, 32, false), packed_probes, clean, most);
        const auto want_scalar =
            replay(lane_program(inputs, probes, 32, true), scalar_probes, clean, most);
        for (const std::size_t count : {std::size_t{1}, std::size_t{7}, std::size_t{8},
                                        std::size_t{9}, lanes - 1, lanes, lanes + 1}) {
          const std::vector<Bit> in_clean(clean.begin(),
                                          clean.begin() + static_cast<long>(count * inputs));
          const std::vector<Bit> in_dirty(dirty.begin(),
                                          dirty.begin() + static_cast<long>(count * inputs));
          const std::vector<Bit> expect_packed(
              want_packed.begin(),
              want_packed.begin() + static_cast<long>(count * packed_probes.size()));
          const std::vector<Bit> expect_scalar(
              want_scalar.begin(),
              want_scalar.begin() + static_cast<long>(count * scalar_probes.size()));
          for (const unsigned nt : {1u, 2u, 5u}) {
            BatchOptions opts;
            opts.num_threads = nt;
            opts.min_chunk = 1;
            BatchRunner lane_batch(packed, packed_probes, opts);
            BatchRunner scalar_batch(scalar, scalar_probes, opts);
            ASSERT_EQ(lane_batch.lanes_per_pass(), static_cast<unsigned>(w));
            ASSERT_EQ(scalar_batch.lanes_per_pass(), 1u);
            const auto where = [&] {
              return ::testing::Message() << "inputs " << inputs << " probes " << probes
                                          << " w" << w << " vectors " << count
                                          << " threads " << nt;
            };
            ASSERT_EQ(lane_batch.run(in_clean, count), expect_packed) << where();
            ASSERT_EQ(lane_batch.run(in_dirty, count), expect_packed)
                << where() << " (garbage bits 1-7)";
            ASSERT_EQ(scalar_batch.run(in_clean, count), expect_scalar) << where();
            ASSERT_EQ(scalar_batch.run(in_dirty, count), expect_scalar)
                << where() << " (garbage bits 1-7)";
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace udsim
