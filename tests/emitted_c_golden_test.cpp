// Golden-shape test for the C emitter: the exact statement op_to_c produces
// for every opcode at both word sizes, plus the full translation unit
// emit_c produces in both layouts (historical global-arena and the native
// backend's batch-entry mode), diffed against tests/golden/emitted_c_ops.txt.
// A second fixture, tests/golden/emitted_c_named.txt, pins the commented
// listings examples/export_c prints for data/c17.bench (lcc, pcset,
// parallel, parallel-combined) and quickstart's two listings, with the
// names each compiled type derives (lcc_var_names, pcset_var_names,
// parallel_var_names).
//
// The emitted text is ABI: the native backend compiles it with the system C
// compiler and the cache keys assume equal programs emit equal C. A drift
// here is either a codegen regression or an intentional change — refresh
// with
//
//   ./udsim_native_tests --update-golden      (or UDSIM_UPDATE_GOLDEN=1)
//
// and commit the diff.
//
// This file also provides main() for the native test binary so the refresh
// flag is intercepted before gtest sees it.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "golden_flag.h"
#include "ir/c_emitter.h"
#include "ir/program.h"
#include "lcc/lcc.h"
#include "netlist/bench_io.h"
#include "parsim/parallel_sim.h"
#include "pcsim/pcset_sim.h"
#include "test_util.h"

namespace udsim {
namespace {

struct OpCase {
  const char* label;
  Op op;
};

/// Every opcode once, operands chosen so the statement is legal at both
/// word sizes (shift immediates stay below 32).
const OpCase kOpCases[] = {
    {"Const0", {OpCode::Const, 0, 2, 0, 0}},
    {"Const1", {OpCode::Const, 1, 2, 0, 0}},
    {"Copy", {OpCode::Copy, 0, 2, 0, 0}},
    {"Not", {OpCode::Not, 0, 2, 0, 0}},
    {"And", {OpCode::And, 0, 2, 0, 1}},
    {"Or", {OpCode::Or, 0, 2, 0, 1}},
    {"Xor", {OpCode::Xor, 0, 2, 0, 1}},
    {"Nand", {OpCode::Nand, 0, 2, 0, 1}},
    {"Nor", {OpCode::Nor, 0, 2, 0, 1}},
    {"Xnor", {OpCode::Xnor, 0, 2, 0, 1}},
    {"AccAnd", {OpCode::AccAnd, 0, 2, 0, 0}},
    {"AccOr", {OpCode::AccOr, 0, 2, 0, 0}},
    {"AccXor", {OpCode::AccXor, 0, 2, 0, 0}},
    {"MaskedCopy", {OpCode::MaskedCopy, 0, 2, 0, 1}},
    {"LoadBit", {OpCode::LoadBit, 0, 2, 1, 0}},
    {"LoadBcast", {OpCode::LoadBcast, 0, 2, 1, 0}},
    {"LoadWord", {OpCode::LoadWord, 0, 2, 1, 0}},
    {"ExtractBit", {OpCode::ExtractBit, 5, 2, 0, 0}},
    {"BcastBit", {OpCode::BcastBit, 5, 2, 0, 0}},
    {"Shl", {OpCode::Shl, 3, 2, 0, 0}},
    {"Shr", {OpCode::Shr, 3, 2, 0, 0}},
    {"ShlOr", {OpCode::ShlOr, 3, 2, 0, 0}},
    {"MaskShlOr", {OpCode::MaskShlOr, 3, 2, 0, 0}},
    {"FunnelL", {OpCode::FunnelL, 3, 2, 0, 1}},
    {"FunnelR", {OpCode::FunnelR, 3, 2, 0, 1}},
};

/// Comment names of tiny_program's arena words.
const std::vector<std::string> kTinyNames = {"", "", "G3"};

/// Small fixed program exercising init words and input loads; named by
/// kTinyNames.
Program tiny_program(int word_bits) {
  Program p;
  p.word_bits = word_bits;
  p.arena_words = 4;
  p.input_words = 2;
  p.ops = {
      {OpCode::LoadBit, 0, 0, 0, 0},
      {OpCode::LoadBit, 0, 1, 1, 0},
      {OpCode::Nand, 0, 2, 0, 1},
  };
  p.arena_init = {{3, 1}};
  return p;
}

std::string render_golden() {
  std::ostringstream os;
  for (const int wb : {32, 64}) {
    Program p;
    p.word_bits = wb;
    p.arena_words = 4;
    p.input_words = 2;
    CEmitOptions opts;
    opts.arena_name = "w";
    opts.comments = false;
    os << "== op_to_c w" << wb << " ==\n";
    for (const OpCase& c : kOpCases) {
      os << c.label << ": " << op_to_c(p, c.op, opts) << "\n";
    }
  }
  for (const int wb : {32, 64}) {
    const Program p = tiny_program(wb);
    os << "== emit_c w" << wb << " (historical layout) ==\n";
    CEmitOptions opts;
    emit_c(os, p, opts, kTinyNames);
    os << "== emit_c w" << wb << " (batch entry) ==\n";
    opts.function_name = "udsim_kernel";
    opts.arena_name = "a";
    opts.comments = false;
    opts.batch_entry = true;
    emit_c(os, p, opts, kTinyNames);
  }
  return os.str();
}

/// The commented listings of examples/export_c on data/c17.bench and of
/// examples/quickstart, each under a `== <source> ==` header.
std::string render_named() {
  std::ostringstream os;
  Netlist c17 = read_bench_file(std::string(UDSIM_DATA_DIR) + "/c17.bench");
  lower_wired_nets(c17);
  {
    const LccCompiled c = compile_lcc(c17);
    os << "== export_c c17 lcc ==\n";
    emit_c(os, c.program, {}, lcc_var_names(c17, c));
  }
  {
    const PCSetCompiled c = compile_pcset(c17);
    os << "== export_c c17 pcset ==\n";
    emit_c(os, c.program, {}, pcset_var_names(c17, c));
  }
  ParallelOptions combined;
  combined.trimming = true;
  combined.shift_elim = ShiftElim::PathTracing;
  for (const auto& [label, options] :
       {std::pair{"parallel", ParallelOptions{}},
        std::pair{"parallel-combined", combined}}) {
    const ParallelCompiled c = compile_parallel(c17, options);
    os << "== export_c c17 " << label << " ==\n";
    emit_c(os, c.program, {}, parallel_var_names(c17, c));
  }
  const Netlist fig4 = test::fig4_network();
  const NetId monitored[] = {*fig4.find_net("E")};
  {
    const PCSetCompiled c = compile_pcset(fig4, monitored);
    os << "== quickstart pcset ==\n";
    emit_c(os, c.program, {}, pcset_var_names(fig4, c));
  }
  {
    const ParallelCompiled c = compile_parallel(fig4, {});
    os << "== quickstart parallel ==\n";
    emit_c(os, c.program, {}, parallel_var_names(fig4, c));
  }
  return os.str();
}

void expect_matches_fixture(const std::string& actual, const char* file) {
  const std::string path = std::string(UDSIM_GOLDEN_DIR) + "/" + file;
  if (test::g_update_golden) {
    std::ofstream out(path);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << actual;
    SUCCEED() << "refreshed " << path;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing fixture " << path
                  << " — run with --update-golden to create it";
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str())
      << "emitted C drifted from " << path
      << " — a codegen regression, or refresh with --update-golden";
}

TEST(EmittedCGoldenTest, MatchesFixture) {
  expect_matches_fixture(render_golden(), "emitted_c_ops.txt");
}

// Programs carry no names; the name helpers must reproduce the comments
// the compilers once stored, byte for byte.
TEST(EmittedCGoldenTest, NamedListingsMatchFixture) {
  expect_matches_fixture(render_named(), "emitted_c_named.txt");
}

// A field wider than one word names its words `name`, `name.w1`, ...;
// scratch words after the fields stay unnamed.
TEST(EmittedCGoldenTest, ParallelNamesCoverEveryFieldWord) {
  Netlist nl("chain");
  NetId prev = nl.add_net("a");
  nl.mark_primary_input(prev);
  for (int i = 0; i < 40; ++i) {
    const NetId next = nl.add_net("n" + std::to_string(i));
    nl.add_gate(GateType::Not, {prev}, next);
    prev = next;
  }
  nl.mark_primary_output(prev);
  const ParallelCompiled c = compile_parallel(nl, {});
  const std::vector<std::string> names = parallel_var_names(nl, c);
  ASSERT_EQ(names.size(), c.program.arena_words);
  const std::uint32_t a = nl.find_net("a")->value;
  ASSERT_EQ(c.net_words[a], 2u);  // 41-bit uniform fields at 32 bits
  EXPECT_EQ(names[c.net_base[a]], "a");
  EXPECT_EQ(names[c.net_base[a] + 1], "a.w1");
  const std::uint32_t field_end = c.net_base.back() + c.net_words.back();
  ASSERT_LT(field_end, c.program.arena_words);
  for (std::uint32_t w = field_end; w < names.size(); ++w) EXPECT_EQ(names[w], "");
}

}  // namespace
}  // namespace udsim

int main(int argc, char** argv) {
  udsim::test::consume_update_golden_flag(argc, argv);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
