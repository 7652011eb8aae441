// lane_parallel (ir/program.h): the predicate that decides which programs
// run_batch settles word_bits vectors per pass. The paper's data-parallel
// claim, made exact: the LCC and PC-set programs qualify on every ISCAS-85
// profile at every lane width, the parallel technique and its variants
// (shifts, single-bit loads, multi-bit fields) never do — and a program
// whose output reads state retained from the previous vector is rejected
// and still batches bit-identically through seam replay.
#include <gtest/gtest.h>

#include <vector>

#include "core/batch_runner.h"
#include "core/kernel_runner.h"
#include "core/simulator.h"
#include "core/width_dispatch.h"
#include "gen/iscas_profiles.h"
#include "ir/program.h"

namespace udsim {
namespace {

constexpr EngineKind kCompiledKinds[] = {
    EngineKind::ZeroDelayLcc,        EngineKind::PCSet,
    EngineKind::Parallel,            EngineKind::ParallelTrimmed,
    EngineKind::ParallelPathTracing, EngineKind::ParallelCycleBreaking,
    EngineKind::ParallelCombined,
};

class LaneParallelProfileTest : public ::testing::TestWithParam<const char*> {};

TEST_P(LaneParallelProfileTest, LccAndPcsetQualifyParallelVariantsDoNot) {
  const Netlist nl = make_iscas85_like(GetParam());
  for (int w : supported_widths()) {
    for (EngineKind kind : kCompiledKinds) {
      const auto sim = make_simulator(nl, kind, {}, w);
      const bool want = kind == EngineKind::ZeroDelayLcc || kind == EngineKind::PCSet;
      EXPECT_EQ(lane_parallel(*sim->compiled_program(), sim->output_probes()), want)
          << GetParam() << " × " << engine_name(kind) << " × " << w << " bits";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllIscas85, LaneParallelProfileTest,
                         ::testing::Values("c432", "c499", "c880", "c1355",
                                           "c1908", "c2670", "c3540", "c5315",
                                           "c6288", "c7552"),
                         [](const auto& info) { return info.param; });

/// w0 = in[0]; w2 = w0 ^ w1; w1 = w0. Word 2 is the XOR of this vector's
/// input and the previous one's: w1 is read before the pass writes it.
Program edge_detector() {
  Program p;
  p.word_bits = 32;
  p.arena_words = 3;
  p.input_words = 1;
  p.ops = {{OpCode::LoadWord, 0, 0, 0, 0},
           {OpCode::Xor, 0, 2, 0, 1},
           {OpCode::Copy, 0, 1, 0, 0}};
  return p;
}

TEST(LaneParallel, EachConditionIsNecessary) {
  const Program p = edge_detector();
  const std::vector<ArenaProbe> current{{0, 0}};
  EXPECT_TRUE(lane_parallel(p, current));  // reads this vector's input only
  EXPECT_FALSE(lane_parallel(p, std::vector<ArenaProbe>{{2, 0}}))
      << "word 2 depends on retained state";
  EXPECT_FALSE(lane_parallel(p, std::vector<ArenaProbe>{{0, 1}}))
      << "probes must read bit 0";

  Program bit_load = p;
  bit_load.ops[0].code = OpCode::LoadBit;
  EXPECT_FALSE(lane_parallel(bit_load, current)) << "LoadBit is not lane-wise";
  Program shift = p;
  shift.ops.push_back({OpCode::Shl, 1, 2, 0, 0});
  EXPECT_FALSE(lane_parallel(shift, current)) << "shifts move data across lanes";
  Program mask = p;
  mask.arena_words = 4;
  mask.arena_init.push_back({3, 0x5});
  EXPECT_FALSE(lane_parallel(mask, current)) << "init words must be lane-uniform";
  mask.arena_init.back().value = ~std::uint64_t{0};
  EXPECT_TRUE(lane_parallel(mask, current));
}

TEST(LaneParallel, RetainedStateProgramStillMatchesSequentialReplay) {
  const Program p = edge_detector();
  const std::vector<ArenaProbe> probes{{2, 0}, {0, 0}};
  constexpr std::size_t kVectors = 70;
  std::vector<Bit> in(kVectors);
  for (std::size_t v = 0; v < kVectors; ++v) in[v] = static_cast<Bit>((v * 7 + v / 3) & 1);

  KernelRunner<std::uint32_t> seq(p);
  std::vector<Bit> expect;
  for (std::size_t v = 0; v < kVectors; ++v) {
    const std::uint32_t word = in[v];
    seq.run(std::span<const std::uint32_t>(&word, 1));
    for (const ArenaProbe& pr : probes) expect.push_back(seq.bit(pr.word, pr.bit));
  }
  for (unsigned nt : {1u, 2u, 5u}) {
    BatchRunner batch(p, probes, BatchOptions{.num_threads = nt});
    EXPECT_EQ(batch.lanes_per_pass(), 1u);
    EXPECT_EQ(batch.run(in, kVectors), expect) << nt << " threads";
  }
}

}  // namespace
}  // namespace udsim
