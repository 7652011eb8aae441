// IR executor and C emitter tests: every opcode, both word sizes.
#include <gtest/gtest.h>

#include <sstream>

#include "gen/iscas_profiles.h"
#include "harness/vectors.h"
#include "ir/c_emitter.h"
#include "ir/executor.h"
#include "parsim/parallel_sim.h"
#include "pcsim/pcset_sim.h"

namespace udsim {
namespace {

template <class Word>
Word run_one(Op op, std::vector<Word> arena, std::vector<Word> in = {}) {
  Program p;
  p.word_bits = static_cast<int>(sizeof(Word) * 8);
  p.arena_words = static_cast<std::uint32_t>(arena.size());
  p.input_words = static_cast<std::uint32_t>(in.size());
  p.ops.push_back(op);
  execute<Word>(p, in, arena);
  return arena[op.dst];
}

TEST(Executor, BitwiseOps) {
  const std::uint32_t a = 0xf0f0a5a5u;
  const std::uint32_t b = 0x0ff033ccu;
  const std::vector<std::uint32_t> ar = {a, b, 0};
  EXPECT_EQ(run_one<std::uint32_t>({OpCode::And, 0, 2, 0, 1}, ar), a & b);
  EXPECT_EQ(run_one<std::uint32_t>({OpCode::Or, 0, 2, 0, 1}, ar), a | b);
  EXPECT_EQ(run_one<std::uint32_t>({OpCode::Xor, 0, 2, 0, 1}, ar), a ^ b);
  EXPECT_EQ(run_one<std::uint32_t>({OpCode::Nand, 0, 2, 0, 1}, ar), ~(a & b));
  EXPECT_EQ(run_one<std::uint32_t>({OpCode::Nor, 0, 2, 0, 1}, ar), ~(a | b));
  EXPECT_EQ(run_one<std::uint32_t>({OpCode::Xnor, 0, 2, 0, 1}, ar), ~(a ^ b));
  EXPECT_EQ(run_one<std::uint32_t>({OpCode::Not, 0, 2, 0, 0}, ar), ~a);
  EXPECT_EQ(run_one<std::uint32_t>({OpCode::Copy, 0, 2, 1, 0}, ar), b);
  EXPECT_EQ(run_one<std::uint32_t>({OpCode::Const, 1, 2, 0, 0}, ar), ~0u);
  EXPECT_EQ(run_one<std::uint32_t>({OpCode::Const, 0, 2, 0, 0}, ar), 0u);
}

TEST(Executor, AccumulateOps) {
  const std::vector<std::uint32_t> ar = {0xffff0000u, 0x00ffff00u};
  EXPECT_EQ(run_one<std::uint32_t>({OpCode::AccAnd, 0, 0, 1, 0}, ar),
            0xffff0000u & 0x00ffff00u);
  EXPECT_EQ(run_one<std::uint32_t>({OpCode::AccOr, 0, 0, 1, 0}, ar),
            0xffff0000u | 0x00ffff00u);
  EXPECT_EQ(run_one<std::uint32_t>({OpCode::AccXor, 0, 0, 1, 0}, ar),
            0xffff0000u ^ 0x00ffff00u);
}

TEST(Executor, MaskedCopy) {
  const std::vector<std::uint32_t> ar = {0xaaaaaaaau, 0x55555555u, 0x0000ffffu};
  // dst = (dst & ~mask) | (a & mask)
  EXPECT_EQ(run_one<std::uint32_t>({OpCode::MaskedCopy, 0, 0, 1, 2}, ar),
            (0xaaaaaaaau & ~0x0000ffffu) | (0x55555555u & 0x0000ffffu));
}

TEST(Executor, Loads) {
  const std::vector<std::uint32_t> in = {0x3u, 0x0u, 0xdeadbeefu};
  const std::vector<std::uint32_t> ar = {0u};
  EXPECT_EQ(run_one<std::uint32_t>({OpCode::LoadBit, 0, 0, 0, 0}, ar, in), 1u);
  EXPECT_EQ(run_one<std::uint32_t>({OpCode::LoadBcast, 0, 0, 0, 0}, ar, in), ~0u);
  EXPECT_EQ(run_one<std::uint32_t>({OpCode::LoadBcast, 0, 0, 1, 0}, ar, in), 0u);
  EXPECT_EQ(run_one<std::uint32_t>({OpCode::LoadWord, 0, 0, 2, 0}, ar, in),
            0xdeadbeefu);
}

TEST(Executor, BitExtractAndBroadcast) {
  const std::vector<std::uint32_t> ar = {0x80000001u, 0u};
  EXPECT_EQ(run_one<std::uint32_t>({OpCode::ExtractBit, 31, 1, 0, 0}, ar), 1u);
  EXPECT_EQ(run_one<std::uint32_t>({OpCode::ExtractBit, 30, 1, 0, 0}, ar), 0u);
  EXPECT_EQ(run_one<std::uint32_t>({OpCode::BcastBit, 0, 1, 0, 0}, ar), ~0u);
  EXPECT_EQ(run_one<std::uint32_t>({OpCode::BcastBit, 1, 1, 0, 0}, ar), 0u);
}

TEST(Executor, Shifts) {
  const std::uint32_t a = 0x90000003u;
  const std::uint32_t lo = 0xc0000000u;
  const std::vector<std::uint32_t> ar = {a, lo, 0x000000ffu};
  EXPECT_EQ(run_one<std::uint32_t>({OpCode::Shl, 4, 2, 0, 0}, ar), a << 4);
  EXPECT_EQ(run_one<std::uint32_t>({OpCode::Shr, 4, 2, 0, 0}, ar), a >> 4);
  EXPECT_EQ(run_one<std::uint32_t>({OpCode::ShlOr, 1, 2, 0, 0}, ar),
            0x000000ffu | (a << 1));
  // MaskShlOr: keep the low imm bits of dst, shift a over the rest.
  EXPECT_EQ(run_one<std::uint32_t>({OpCode::MaskShlOr, 1, 2, 0, 0}, ar),
            (0x000000ffu & 1u) | (a << 1));
  // Funnels.
  EXPECT_EQ(run_one<std::uint32_t>({OpCode::FunnelL, 1, 2, 0, 1}, ar),
            (a << 1) | (lo >> 31));
  EXPECT_EQ(run_one<std::uint32_t>({OpCode::FunnelR, 1, 2, 0, 1}, ar),
            (a >> 1) | (lo << 31));
}

TEST(Executor, SixtyFourBitWords) {
  const std::uint64_t a = 0xf0f0a5a5deadbeefull;
  std::vector<std::uint64_t> ar = {a, 0};
  Program p;
  p.word_bits = 64;
  p.arena_words = 2;
  p.ops.push_back({OpCode::FunnelR, 8, 1, 0, 0});
  execute<std::uint64_t>(p, {}, ar);
  EXPECT_EQ(ar[1], (a >> 8) | (a << 56));
}

TEST(Executor, ArenaInit) {
  Program p;
  p.word_bits = 32;
  p.arena_words = 3;
  p.arena_init.push_back({1, 0xffffffffffffffffull});
  p.arena_init.push_back({2, 0x12345678ull});
  std::vector<std::uint32_t> ar(3, 0);
  initialize_arena<std::uint32_t>(p, ar);
  EXPECT_EQ(ar[0], 0u);
  EXPECT_EQ(ar[1], 0xffffffffu);  // truncated to word size
  EXPECT_EQ(ar[2], 0x12345678u);
}

TEST(Executor, ThreadedDispatchMatchesSwitchReference) {
  // Differential test: the computed-goto executor against the plain-switch
  // reference, over real generated programs of both techniques.
  const Netlist nl = make_iscas85_like("c432");
  RandomVectorSource src(nl.primary_inputs().size(), 19);
  std::vector<Bit> v(nl.primary_inputs().size());
  const ParallelCompiled par = compile_parallel(nl, {});
  const PCSetCompiled pcs = compile_pcset(nl);
  for (const Program* prog : {&par.program, &pcs.program}) {
    const Program& program = *prog;
    std::vector<std::uint32_t> a1(program.arena_words, 0), a2 = a1;
    initialize_arena<std::uint32_t>(program, a1);
    initialize_arena<std::uint32_t>(program, a2);
    std::vector<std::uint32_t> in(nl.primary_inputs().size());
    for (int step = 0; step < 10; ++step) {
      src.next(v);
      for (std::size_t i = 0; i < v.size(); ++i) in[i] = v[i];
      execute<std::uint32_t>(program, in, a1);
      execute_switch<std::uint32_t>(program, in, a2);
      ASSERT_EQ(a1, a2) << "step " << step;
    }
  }
}

TEST(CEmitter, StatementShapes) {
  Program p;
  p.word_bits = 32;
  p.arena_words = 4;
  const std::vector<std::string> names = {"A", "B", "C", ""};
  CEmitOptions opts;
  opts.comments = false;
  opts.arena_name = "w";
  EXPECT_EQ(op_to_c(p, {OpCode::And, 0, 2, 0, 1}, opts, names), "w[2] = w[0] & w[1];");
  EXPECT_EQ(op_to_c(p, {OpCode::ShlOr, 1, 2, 0, 0}, opts, names), "w[2] |= w[0] << 1;");
  EXPECT_EQ(op_to_c(p, {OpCode::FunnelR, 4, 3, 0, 1}, opts, names),
            "w[3] = (w[0] >> 4) | (w[1] << 28);");
  EXPECT_EQ(op_to_c(p, {OpCode::LoadBit, 0, 0, 7, 0}, opts, names),
            "w[0] = in[7] & 1u;");
  EXPECT_EQ(op_to_c(p, {OpCode::ExtractBit, 31, 0, 1, 0}, opts, names),
            "w[0] = (w[1] >> 31) & 1u;");
}

TEST(CEmitter, FullProgramIsWellFormed) {
  Program p;
  p.word_bits = 32;
  p.arena_words = 2;
  p.input_words = 1;
  const std::vector<std::string> names = {"A", "B"};
  p.arena_init.push_back({1, 5});
  p.ops.push_back({OpCode::LoadBit, 0, 0, 0, 0});
  p.ops.push_back({OpCode::Not, 0, 1, 0, 0});
  std::ostringstream os;
  emit_c(os, p, {}, names);
  const std::string s = os.str();
  EXPECT_NE(s.find("#include <stdint.h>"), std::string::npos);
  EXPECT_NE(s.find("uint32_t udsim_arena[2];"), std::string::npos);
  EXPECT_NE(s.find("void udsim_step(const uint32_t *in)"), std::string::npos);
  EXPECT_NE(s.find("/* A */"), std::string::npos);
}

}  // namespace
}  // namespace udsim
