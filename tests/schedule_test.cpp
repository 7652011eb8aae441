// Run ordering (ir/schedule.h): schedule_runs permutes a program's ops
// into same-opcode runs and keeps every read-after-write, write-after-read
// and write-after-write pair on an arena word in order. Checked on every
// ISCAS profile × compiler × lane width and on hand-built programs that
// reuse scratch words, read their dst, or span several 4096-op windows.
// With a first scratch word, it also renames the words above it: checked
// by execution and by symbolic value numbering against the unrenamed order,
// and for a tight, collision-free allocation. Also checks the metadata that indexes ops by position or by order: the
// LCC def_end table and the dataflow attribution of profile_program.
#include "ir/schedule.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "core/width_dispatch.h"
#include "gen/iscas_profiles.h"
#include "ir/executor.h"
#include "lcc/lcc.h"
#include "lcc/lcc3.h"
#include "obs/profiler.h"
#include "parsim/parallel_sim.h"
#include "pcsim/pcset_sim.h"
#include "test_util.h"

namespace udsim {
namespace {

using test::dependency_preserving_shuffle;
using OpKey = std::tuple<int, int, std::uint32_t, std::uint32_t, std::uint32_t>;

OpKey key(const Op& op) {
  return {static_cast<int>(op.code), op.imm, op.dst, op.a, op.b};
}

std::vector<OpKey> sorted_keys(const Program& p) {
  std::vector<OpKey> k;
  k.reserve(p.ops.size());
  for (const Op& op : p.ops) k.push_back(key(op));
  std::sort(k.begin(), k.end());
  return k;
}

/// Per arena word, the program's accesses cut at each write: the writer,
/// then the (sorted) ops that read the value it wrote. Two orders of the
/// same ops keep every RAW/WAR/WAW pair exactly when these agree: the
/// writes of each word come in the same sequence (WAW) and every read sees
/// the same write (RAW) and precedes the next one (WAR).
struct Segment {
  OpKey writer{-1, 0, 0, 0, 0};  ///< -1: reads of the pass-entry value
  std::vector<OpKey> readers;
  bool operator==(const Segment&) const = default;
};

std::map<std::uint32_t, std::vector<Segment>> access_segments(const Program& p) {
  std::map<std::uint32_t, std::vector<Segment>> m;
  const auto current = [&](std::uint32_t w) -> Segment& {
    auto& segs = m[w];
    if (segs.empty()) segs.emplace_back();
    return segs.back();
  };
  for (const Op& op : p.ops) {
    const OpReads r = arena_reads(op);
    for (int k = 0; k < r.count; ++k) current(r.word[k]).readers.push_back(key(op));
    current(op.dst);
    m[op.dst].push_back(Segment{key(op), {}});
  }
  for (auto& [w, segs] : m) {
    for (Segment& s : segs) std::sort(s.readers.begin(), s.readers.end());
  }
  return m;
}

std::size_t opcode_changes(const Program& p) {
  std::size_t n = 0;
  for (std::size_t i = 1; i < p.ops.size(); ++i) n += p.ops[i].code != p.ops[i - 1].code;
  return n;
}

template <class Word>
Word random_word(std::mt19937_64& rng) {
  std::uint64_t lanes[4] = {rng(), rng(), rng(), rng()};
  return word_from_u64_lanes<Word>(lanes);
}

/// `passes` stateful passes of `scheduled` through the threaded executor
/// and of `reference` through the switch reference, on the same random
/// inputs; the arenas must agree bit for bit after every pass. With
/// `fixed_words` set, only the words below it are compared (the words above
/// are pass-local scratch, which renaming may lay out differently).
constexpr std::uint32_t kWholeArena = 0xffffffffu;

template <class Word>
void expect_same_arenas(const Program& scheduled, const Program& reference,
                        int passes, std::uint64_t seed, const std::string& what,
                        std::uint32_t fixed_words) {
  if (fixed_words == kWholeArena) {
    ASSERT_EQ(scheduled.arena_words, reference.arena_words) << what;
    fixed_words = reference.arena_words;
  }
  std::vector<Word> a(scheduled.arena_words), b(reference.arena_words);
  initialize_arena<Word>(scheduled, a);
  initialize_arena<Word>(reference, b);
  std::mt19937_64 rng(seed);
  std::vector<Word> in(scheduled.input_words);
  for (int pass = 0; pass < passes; ++pass) {
    for (Word& w : in) w = random_word<Word>(rng);
    execute<Word>(scheduled, in, a);
    execute_switch<Word>(reference, in, b);
    ASSERT_TRUE(std::equal(a.begin(), a.begin() + fixed_words, b.begin()))
        << what << ": arenas differ after pass " << pass;
  }
}

void expect_same_arenas_at(int word_bits, const Program& scheduled,
                           const Program& reference, int passes,
                           std::uint64_t seed, const std::string& what,
                           std::uint32_t fixed_words = kWholeArena) {
  switch (word_bits) {
    case 32:
      return expect_same_arenas<std::uint32_t>(scheduled, reference, passes, seed, what,
                                               fixed_words);
    case 64:
      return expect_same_arenas<std::uint64_t>(scheduled, reference, passes, seed, what,
                                               fixed_words);
#if UDSIM_HAS_W128
    case 128:
      return expect_same_arenas<u128>(scheduled, reference, passes, seed, what, fixed_words);
#endif
    case 256:
      return expect_same_arenas<u256>(scheduled, reference, passes, seed, what, fixed_words);
    default:
      FAIL() << what << ": no executor for " << word_bits << "-bit words";
  }
}

/// The three properties for one input program: schedule a random
/// dependency-preserving shuffle of it, then check the result is a
/// permutation of the shuffle, keeps its hazard order, and leaves arenas
/// bit-identical to the shuffle run through execute_switch.
void check_schedule(const Program& p, std::uint64_t seed, const std::string& what,
                    int passes = 200) {
  const Program shuffled = dependency_preserving_shuffle(p, seed);
  Program scheduled = shuffled;
  schedule_runs(scheduled);
  EXPECT_EQ(sorted_keys(scheduled), sorted_keys(shuffled)) << what << ": not a permutation";
  EXPECT_TRUE(access_segments(scheduled) == access_segments(shuffled))
      << what << ": a RAW/WAR/WAW pair changed order";
  EXPECT_LE(opcode_changes(scheduled), opcode_changes(shuffled)) << what;
  expect_same_arenas_at(p.word_bits, scheduled, shuffled, passes, seed, what);
}

struct NamedProgram {
  std::string name;
  Program program;
  std::uint32_t first_scratch;  ///< what the compiler passes to schedule_runs
};

std::vector<NamedProgram> compiled_programs(const Netlist& nl, int w) {
  std::vector<NamedProgram> out;
  const std::pair<const char*, ParallelOptions> variants[] = {
      {"parallel", {.word_bits = w}},
      {"trimmed", {.trimming = true, .word_bits = w}},
      {"path-tracing", {.shift_elim = ShiftElim::PathTracing, .word_bits = w}},
      {"cycle-breaking", {.shift_elim = ShiftElim::CycleBreaking, .word_bits = w}},
      {"combined",
       {.trimming = true, .shift_elim = ShiftElim::PathTracing, .word_bits = w}},
  };
  for (const auto& [name, options] : variants) {
    ParallelCompiled c = compile_parallel(nl, options);
    const std::uint32_t field_end = c.net_base.back() + c.net_words.back();
    out.push_back({name, std::move(c.program), field_end});
  }
  Program pcset = compile_pcset(nl, {}, w).program;
  out.push_back({"pcset", pcset, pcset.arena_words});
  Program lcc = compile_lcc(nl, w).program;
  out.push_back({"lcc", lcc, lcc.arena_words});
  out.push_back({"lcc3", compile_lcc3(nl, false, w).program,
                 static_cast<std::uint32_t>(2 * nl.net_count())});
  return out;
}

std::vector<int> testable_widths() {
  std::vector<int> widths{32, 64};
#if UDSIM_HAS_W128
  if (width_available(128)) widths.push_back(128);
#endif
  if (width_available(256)) widths.push_back(256);
  return widths;
}

// ---- scratch renaming ---------------------------------------------------

/// Which of a, b and dst an opcode reads as arena words, by position (where
/// arena_reads collapses coinciding words).
struct ReadPositions {
  bool a = false, b = false, dst = false;
};

ReadPositions read_positions(OpCode c) {
  const OpReads r = arena_reads(Op{c, 0, 0, 1, 2});
  ReadPositions rp;
  for (int k = 0; k < r.count; ++k) {
    (r.word[k] == 1 ? rp.a : r.word[k] == 2 ? rp.b : rp.dst) = true;
  }
  return rp;
}

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// One pass of `p` on symbols: every arena word enters the pass as a symbol
/// of its own and every op's result is a hash of its opcode, immediate,
/// input index and the symbols it reads, in operand order. Two orders and
/// layouts of one computation agree on the sorted results and on the final
/// symbols below `first_scratch`; a read that sees another value's word
/// (two live values sharing one) changes its result.
struct SymbolicPass {
  std::vector<std::uint64_t> results;  ///< sorted
  std::vector<std::uint64_t> fixed;    ///< words below first_scratch at pass end
};

SymbolicPass symbolic_pass(const Program& p, std::uint32_t first_scratch) {
  std::vector<std::uint64_t> w(p.arena_words);
  for (std::uint32_t i = 0; i < p.arena_words; ++i) w[i] = mix(i);
  SymbolicPass out;
  for (const Op& op : p.ops) {
    const ReadPositions rp = read_positions(op.code);
    std::uint64_t h = mix((std::uint64_t{static_cast<std::uint8_t>(op.code)} << 8) | op.imm);
    const bool loads = op.code == OpCode::LoadBit || op.code == OpCode::LoadBcast ||
                       op.code == OpCode::LoadWord;
    if (loads) h = mix(h ^ ~std::uint64_t{op.a});
    if (rp.a) h = mix(h * 31 + w[op.a]);
    if (rp.b) h = mix(h * 37 + w[op.b]);
    if (rp.dst) h = mix(h * 41 + w[op.dst]);
    w[op.dst] = h;
    out.results.push_back(h);
  }
  std::sort(out.results.begin(), out.results.end());
  out.fixed.assign(w.begin(), w.begin() + first_scratch);
  return out;
}

/// The fewest scratch words any layout of `p`'s scratch values needs in
/// its op order: the most values live at one op, counting the values
/// written at or before it and accessed after it, plus its own result when
/// no later op accesses it. Every scratch read must follow a write.
std::uint32_t peak_live_scratch(const Program& p, std::uint32_t first_scratch) {
  struct Value {
    std::size_t write, last;
  };
  std::vector<Value> values;
  std::vector<std::size_t> current(p.arena_words - first_scratch);
  for (std::size_t i = 0; i < p.ops.size(); ++i) {
    const Op& op = p.ops[i];
    const ReadPositions rp = read_positions(op.code);
    const auto touch = [&](std::uint32_t w) {
      if (w >= first_scratch) values[current[w - first_scratch]].last = i;
    };
    if (rp.a) touch(op.a);
    if (rp.b) touch(op.b);
    if (rp.dst) {
      touch(op.dst);
    } else if (op.dst >= first_scratch) {
      current[op.dst - first_scratch] = values.size();
      values.push_back({i, i});
    }
  }
  std::vector<int> delta(p.ops.size() + 1, 0), dead(p.ops.size(), 0);
  for (const Value& v : values) {
    if (v.last > v.write) {
      ++delta[v.write];
      --delta[v.last];
    } else {
      ++dead[v.write];
    }
  }
  int live = 0, peak = 0;
  for (std::size_t i = 0; i < p.ops.size(); ++i) {
    live += delta[i];
    peak = std::max(peak, live + dead[i]);
  }
  return static_cast<std::uint32_t>(peak);
}

/// sorted_keys with every scratch word number replaced by one marker.
std::vector<OpKey> sorted_fixed_keys(const Program& p, std::uint32_t first_scratch) {
  std::vector<OpKey> k;
  k.reserve(p.ops.size());
  for (const Op& op : p.ops) {
    const ReadPositions rp = read_positions(op.code);
    const auto fixed = [&](std::uint32_t w, bool arena) {
      return arena && w >= first_scratch ? 0xffffffffu : w;
    };
    k.emplace_back(static_cast<int>(op.code), op.imm, fixed(op.dst, true),
                   fixed(op.a, rp.a), fixed(op.b, rp.b));
  }
  std::sort(k.begin(), k.end());
  return k;
}

/// Renames `reference`'s scratch words from `first_scratch` up and checks
/// the result against it: the same ops up to scratch word numbers, the
/// same values (symbolically, and over `passes` executed passes below
/// first_scratch), and an arena of first_scratch plus the peak of live
/// scratch values in the new order. Returns the renamed program.
Program check_renamed(const Program& reference, std::uint32_t first_scratch,
                      std::uint64_t seed, const std::string& what, int passes = 50) {
  Program renamed = reference;
  schedule_runs(renamed, first_scratch);
  EXPECT_EQ(sorted_fixed_keys(renamed, first_scratch),
            sorted_fixed_keys(reference, first_scratch))
      << what << ": not the same ops";
  const SymbolicPass got = symbolic_pass(renamed, first_scratch);
  const SymbolicPass want = symbolic_pass(reference, first_scratch);
  EXPECT_TRUE(got.results == want.results) << what << ": an op reads a different value";
  EXPECT_TRUE(got.fixed == want.fixed) << what << ": a fixed word ends with a different value";
  EXPECT_EQ(renamed.arena_words, first_scratch + peak_live_scratch(renamed, first_scratch))
      << what << ": allocation is not tight";
  EXPECT_EQ(renamed.arena_init.size(), reference.arena_init.size()) << what;
  expect_same_arenas_at(reference.word_bits, renamed, reference, passes, seed, what,
                        first_scratch);
  return renamed;
}

class ScheduleProfiles : public ::testing::TestWithParam<std::string> {};

TEST_P(ScheduleProfiles, CompiledProgramsAtEveryWidth) {
  const Netlist nl = make_iscas85_like(GetParam());
  std::uint64_t seed = 1;
  for (const int w : testable_widths()) {
    for (const NamedProgram& np : compiled_programs(nl, w)) {
      check_schedule(np.program, seed++,
                     GetParam() + "/" + np.name + "/w" + std::to_string(w));
    }
  }
}

// Renaming against the unrenamed execution: a dependency-preserving
// shuffle of each compiled program (its scratch words reused in a new
// order) renamed from the compiler's first scratch word computes the same
// values. Without scratch (PC-set, LCC) renaming is plain run ordering.
TEST_P(ScheduleProfiles, RenamedScratchMatchesUnrenamedExecution) {
  const Netlist nl = make_iscas85_like(GetParam());
  std::uint64_t seed = 500;
  for (const int w : testable_widths()) {
    for (const NamedProgram& np : compiled_programs(nl, w)) {
      const std::string what = GetParam() + "/" + np.name + "/w" + std::to_string(w);
      const Program reference = dependency_preserving_shuffle(np.program, seed++);
      const Program renamed = check_renamed(reference, np.first_scratch, seed, what);
      if (np.first_scratch == np.program.arena_words) {
        Program plain = reference;
        schedule_runs(plain);
        ASSERT_EQ(renamed.ops.size(), plain.ops.size()) << what;
        for (std::size_t i = 0; i < plain.ops.size(); ++i) {
          ASSERT_EQ(key(renamed.ops[i]), key(plain.ops[i])) << what << " position " << i;
        }
        EXPECT_EQ(renamed.arena_words, plain.arena_words) << what;
      }
    }
  }
}

std::vector<std::string> profile_names() {
  std::vector<std::string> names;
  for (const IscasProfile& p : iscas85_profiles()) names.push_back(p.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(Iscas85, ScheduleProfiles,
                         ::testing::ValuesIn(profile_names()),
                         [](const auto& info) { return info.param; });

Program hand_program(std::uint32_t arena_words, std::uint32_t input_words,
                     std::vector<Op> ops) {
  Program p;
  p.word_bits = 32;
  p.arena_words = arena_words;
  p.input_words = input_words;
  p.ops = std::move(ops);
  return p;
}

TEST(Schedule, GroupsIndependentOpsIntoLowestIndexRuns) {
  // Four independent gates alternating And/Or: one run each, in source
  // order within the run.
  const Program p = hand_program(
      10, 2,
      {{OpCode::LoadWord, 0, 0, 0, 0},
       {OpCode::LoadWord, 0, 1, 1, 0},
       {OpCode::And, 0, 2, 0, 1},
       {OpCode::Or, 0, 3, 0, 1},
       {OpCode::And, 0, 4, 0, 1},
       {OpCode::Or, 0, 5, 0, 1}});
  Program s = p;
  schedule_runs(s);
  const std::vector<std::uint32_t> dst_order{0, 1, 2, 4, 3, 5};
  ASSERT_EQ(s.ops.size(), dst_order.size());
  for (std::size_t i = 0; i < dst_order.size(); ++i) {
    EXPECT_EQ(s.ops[i].dst, dst_order[i]) << "position " << i;
  }
  EXPECT_EQ(opcode_changes(s), 2u);
}

TEST(Schedule, ScratchReuseKeepsWarAndWawOrder) {
  // Scratch word 2 is written, read, and rewritten three times; every
  // rewrite must wait for the reads of the previous value (WAR) and for
  // the previous write (WAW), so the Ands and Copies cannot each merge
  // into one run.
  const Program p = hand_program(
      8, 2,
      {{OpCode::LoadWord, 0, 0, 0, 0},
       {OpCode::LoadWord, 0, 1, 1, 0},
       {OpCode::And, 0, 2, 0, 1},
       {OpCode::Copy, 0, 3, 2, 0},
       {OpCode::Or, 0, 2, 0, 1},
       {OpCode::Copy, 0, 4, 2, 0},
       {OpCode::And, 0, 2, 3, 4},
       {OpCode::Copy, 0, 5, 2, 0},
       {OpCode::Xor, 0, 6, 3, 5},
       {OpCode::And, 0, 7, 0, 1}});
  Program s = p;
  schedule_runs(s);
  EXPECT_TRUE(access_segments(s) == access_segments(p));
  EXPECT_EQ(sorted_keys(s), sorted_keys(p));
  // The independent And into word 7 joins the first And run.
  EXPECT_EQ(s.ops[3].dst, 7u);
  expect_same_arenas_at(32, s, p, 200, 7, "scratch reuse");
  check_schedule(p, 11, "scratch reuse");
  // A first scratch word at the arena's end renames nothing.
  Program none = p;
  schedule_runs(none, p.arena_words);
  ASSERT_EQ(none.ops.size(), s.ops.size());
  for (std::size_t i = 0; i < s.ops.size(); ++i) EXPECT_EQ(key(none.ops[i]), key(s.ops[i])) << i;
  EXPECT_EQ(none.arena_words, p.arena_words);
}

TEST(Schedule, RenamedScratchDropsWarAndWawOrder) {
  // Three independent gates pass their results through scratch word 6.
  // Reusing the word forces Xor, Copy, Xor, Copy, ...; renamed, each value
  // has a word of its own and the gates form one Xor run and one Copy run,
  // over three scratch words.
  const Program p = hand_program(
      7, 3,
      {{OpCode::LoadWord, 0, 0, 0, 0},
       {OpCode::LoadWord, 0, 1, 1, 0},
       {OpCode::LoadWord, 0, 2, 2, 0},
       {OpCode::Xor, 0, 6, 0, 1},
       {OpCode::Copy, 0, 3, 6, 0},
       {OpCode::Xor, 0, 6, 1, 2},
       {OpCode::Copy, 0, 4, 6, 0},
       {OpCode::Xor, 0, 6, 0, 2},
       {OpCode::Copy, 0, 5, 6, 0}});
  Program fixed = p;
  schedule_runs(fixed);
  EXPECT_EQ(opcode_changes(fixed), 6u);
  const Program renamed = check_renamed(p, 6, 7, "renamed scratch reuse", 200);
  EXPECT_EQ(opcode_changes(renamed), 2u);
  EXPECT_EQ(renamed.arena_words, 9u);
}

TEST(Schedule, ScratchReadBeforeWriteIsRejected) {
  // Words 2 and up are scratch. Each program breaks the contract once;
  // schedule_runs throws and leaves the program as it was, while the same
  // program with no scratch schedules as before.
  const auto rejected = [](Program p, std::uint32_t first_scratch, const char* what) {
    const Program before = p;
    EXPECT_THROW(schedule_runs(p, first_scratch), std::invalid_argument) << what;
    EXPECT_EQ(sorted_keys(p), sorted_keys(before)) << what;
    for (std::size_t i = 0; i < p.ops.size(); ++i) {
      EXPECT_EQ(key(p.ops[i]), key(before.ops[i])) << what << " position " << i;
    }
    EXPECT_EQ(p.arena_words, before.arena_words) << what;
    EXPECT_NO_THROW(schedule_runs(p)) << what;
  };
  // Read of a value the pass has not written: the previous pass's.
  rejected(hand_program(4, 1,
                        {{OpCode::LoadWord, 0, 0, 0, 0},
                         {OpCode::Copy, 0, 1, 2, 0},
                         {OpCode::Copy, 0, 2, 0, 0}}),
           2, "read before the pass writes it");
  // The b operand, and a read-modify-write of an unwritten word.
  rejected(hand_program(4, 1,
                        {{OpCode::LoadWord, 0, 0, 0, 0},
                         {OpCode::Copy, 0, 2, 0, 0},
                         {OpCode::And, 0, 1, 2, 3}}),
           2, "b operand never written");
  rejected(hand_program(4, 1,
                        {{OpCode::LoadWord, 0, 0, 0, 0},
                         {OpCode::AccOr, 0, 3, 0, 0},
                         {OpCode::Copy, 0, 1, 3, 0}}),
           2, "read-modify-write of an unwritten word");
  // A scratch word with an init value.
  Program init = hand_program(4, 1,
                              {{OpCode::LoadWord, 0, 0, 0, 0},
                               {OpCode::Copy, 0, 2, 0, 0},
                               {OpCode::Copy, 0, 1, 2, 0}});
  init.arena_init.push_back({3, ~std::uint64_t{0}});
  rejected(init, 2, "init value on a scratch word");
}

TEST(Schedule, ReadModifyWriteChainsOnScratchKeepTheirValue) {
  // Words 0-5 are fields (0-2 loaded, 3-5 stored), 6-8 scratch. Word 6
  // carries one value through every read-modify-write opcode, then a
  // second value; word 7 is rewritten from itself; word 8 xors itself.
  const Program p = hand_program(
      9, 3,
      {{OpCode::LoadWord, 0, 0, 0, 0},
       {OpCode::LoadWord, 0, 1, 1, 0},
       {OpCode::LoadWord, 0, 2, 2, 0},
       {OpCode::Copy, 0, 6, 0, 0},
       {OpCode::AccAnd, 0, 6, 1, 0},
       {OpCode::Copy, 0, 7, 6, 0},
       {OpCode::AccXor, 0, 6, 2, 0},
       {OpCode::ShlOr, 3, 6, 1, 0},
       {OpCode::MaskShlOr, 5, 6, 2, 0},
       {OpCode::MaskedCopy, 0, 6, 0, 7},
       {OpCode::AccOr, 0, 6, 6, 0},
       {OpCode::Copy, 0, 3, 6, 0},
       {OpCode::Copy, 0, 6, 2, 0},
       {OpCode::AccOr, 0, 6, 7, 0},
       {OpCode::Not, 0, 7, 7, 0},
       {OpCode::Xor, 0, 4, 6, 7},
       {OpCode::Copy, 0, 8, 1, 0},
       {OpCode::AccXor, 0, 8, 8, 0},
       {OpCode::Or, 0, 5, 8, 6}});
  const Program renamed = check_renamed(p, 6, 3, "read-modify-write chains", 200);
  // Each read-modify-write continues the value in its own dst word: the
  // chain from op 3 stays in one word up to its Copy into word 3.
  std::uint32_t chain = 0xffffffffu;
  for (const Op& op : renamed.ops) {
    if (op.code == OpCode::MaskShlOr) chain = op.dst;
  }
  for (const Op& op : renamed.ops) {
    if (op.code == OpCode::AccAnd || op.code == OpCode::ShlOr ||
        op.code == OpCode::MaskedCopy) {
      EXPECT_EQ(op.dst, chain);
    }
  }
}

TEST(Schedule, ReadModifyWriteOpsReadTheirDst) {
  // Every op that reads dst (Acc*, ShlOr, MaskShlOr, MaskedCopy) chained
  // on the same words, interleaved with plain writes of those words that
  // the scheduler would like to hoist into one Copy run.
  const Program p = hand_program(
      10, 3,
      {{OpCode::LoadWord, 0, 0, 0, 0},
       {OpCode::LoadWord, 0, 1, 1, 0},
       {OpCode::LoadWord, 0, 2, 2, 0},
       {OpCode::Copy, 0, 3, 0, 0},
       {OpCode::AccAnd, 0, 3, 1, 0},
       {OpCode::Copy, 0, 4, 3, 0},
       {OpCode::Copy, 0, 3, 2, 0},
       {OpCode::AccOr, 0, 3, 0, 0},
       {OpCode::AccXor, 0, 3, 1, 0},
       {OpCode::ShlOr, 5, 3, 2, 0},
       {OpCode::Copy, 0, 5, 3, 0},
       {OpCode::MaskShlOr, 7, 4, 3, 0},
       {OpCode::MaskedCopy, 0, 4, 1, 2},
       {OpCode::Copy, 0, 6, 4, 0},
       {OpCode::Copy, 0, 4, 0, 0},
       {OpCode::MaskedCopy, 0, 4, 5, 6},
       {OpCode::ShlOr, 1, 7, 4, 0},  // word 7: retained across passes
       {OpCode::Copy, 0, 8, 7, 0}});
  Program s = p;
  schedule_runs(s);
  EXPECT_TRUE(access_segments(s) == access_segments(p));
  EXPECT_EQ(sorted_keys(s), sorted_keys(p));
  expect_same_arenas_at(32, s, p, 200, 3, "read-modify-write");
  check_schedule(p, 13, "read-modify-write");
}

/// Random ops of every opcode over a small arena, so hazards are dense and
/// cross every window boundary.
Program random_program(std::size_t ops, int word_bits, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  Program p;
  p.word_bits = word_bits;
  p.arena_words = 96;
  p.input_words = 8;
  p.arena_init = {{0, ~std::uint64_t{0}}, {1, 0x5a5a}};
  const auto word = [&] { return static_cast<std::uint32_t>(rng() % p.arena_words); };
  for (std::size_t i = 0; i < ops; ++i) {
    const auto code = static_cast<OpCode>(rng() % (static_cast<int>(OpCode::FunnelR) + 1));
    Op op{code, 0, word(), word(), word()};
    switch (code) {
      case OpCode::Const:
        op.imm = static_cast<std::uint8_t>(rng() & 1);
        break;
      case OpCode::LoadBit:
      case OpCode::LoadBcast:
      case OpCode::LoadWord:
        op.a = static_cast<std::uint32_t>(rng() % p.input_words);
        break;
      case OpCode::ExtractBit:
      case OpCode::BcastBit:
      case OpCode::Shl:
      case OpCode::Shr:
      case OpCode::ShlOr:
      case OpCode::MaskShlOr:
        op.imm = static_cast<std::uint8_t>(rng() % static_cast<unsigned>(word_bits));
        break;
      case OpCode::FunnelL:
      case OpCode::FunnelR:
        op.imm = static_cast<std::uint8_t>(1 + rng() % static_cast<unsigned>(word_bits - 1));
        break;
      default:
        break;
    }
    p.ops.push_back(op);
  }
  return p;
}

/// random_program whose words from `first_scratch` up obey the scratch
/// contract: a scratch word is read only once the pass has written it.
Program random_scratch_program(std::size_t ops, int word_bits, std::uint64_t seed,
                               std::uint32_t first_scratch) {
  Program p = random_program(ops, word_bits, seed);
  std::mt19937_64 rng(seed ^ 0x5eed);
  std::vector<std::uint32_t> written;  // scratch words written so far
  const auto fixed_word = [&] { return static_cast<std::uint32_t>(rng() % first_scratch); };
  const auto readable = [&] {
    if (written.empty() || rng() % 2 == 0) return fixed_word();
    return written[rng() % written.size()];
  };
  for (Op& op : p.ops) {
    const ReadPositions rp = read_positions(op.code);
    if (rp.a) op.a = readable();
    if (rp.b) op.b = readable();
    if (rp.dst) {
      op.dst = readable();
    } else if (op.dst >= first_scratch &&
               std::find(written.begin(), written.end(), op.dst) == written.end()) {
      written.push_back(op.dst);
    }
  }
  return p;
}

TEST(Schedule, PeakLiveAllocationNeverSharesALiveWord) {
  // Dense random programs over 80 scratch words, up to several windows
  // long. Were two values live at once given one word, a read would see the
  // wrong one and the symbolic pass of check_renamed would differ. The
  // arena holds exactly the peak of live values, fewer words than values.
  std::uint64_t seed = 70;
  for (const int w : testable_widths()) {
    for (const std::size_t ops : {std::size_t{300}, std::size_t{5000}, std::size_t{10000}}) {
      const Program p = random_scratch_program(ops, w, seed++, 16);
      const std::string what =
          "random scratch/" + std::to_string(ops) + "/w" + std::to_string(w);
      const Program renamed = check_renamed(p, 16, seed, what);
      const auto values = static_cast<std::uint32_t>(
          std::count_if(p.ops.begin(), p.ops.end(), [](const Op& op) {
            return op.dst >= 16 && !read_positions(op.code).dst;
          }));
      EXPECT_LT(renamed.arena_words - 16, values) << what << ": no word was reused";
    }
  }
}

TEST(Schedule, ProgramsLongerThanOneWindow) {
  for (const int w : testable_widths()) {
    const Program p = random_program(10000, w, 40 + static_cast<std::uint64_t>(w));
    Program s = p;
    schedule_runs(s);
    const std::string what = "random/w" + std::to_string(w);
    EXPECT_EQ(sorted_keys(s), sorted_keys(p)) << what;
    EXPECT_TRUE(access_segments(s) == access_segments(p)) << what;
    EXPECT_LT(opcode_changes(s), opcode_changes(p)) << what;
    expect_same_arenas_at(w, s, p, 200, 5, what);
    check_schedule(p, 17, what);
  }
}

/// The documented policy, spelled out in quadratic time: per window of
/// 4096 source ops, grow the current run by its lowest-index ready op, or
/// start the next run at the lowest-index ready op overall.
Program reference_schedule(const Program& p) {
  constexpr std::size_t kWindow = 4096;
  Program out = p;
  out.ops.clear();
  OpCode run = p.ops.empty() ? OpCode::Const : p.ops.front().code;
  for (std::size_t base = 0; base < p.ops.size(); base += kWindow) {
    const std::size_t n = std::min(kWindow, p.ops.size() - base);
    // Hazard predecessors within the window, by brute force.
    std::vector<std::vector<std::size_t>> preds(n);
    const auto reads = [&](const Op& op, std::uint32_t w) {
      const OpReads r = arena_reads(op);
      return std::find(r.word, r.word + r.count, w) != r.word + r.count;
    };
    for (std::size_t j = 0; j < n; ++j) {
      const Op& oj = p.ops[base + j];
      for (std::size_t i = 0; i < j; ++i) {
        const Op& oi = p.ops[base + i];
        if (reads(oj, oi.dst) || reads(oi, oj.dst) || oi.dst == oj.dst) preds[j].push_back(i);
      }
    }
    std::vector<bool> done(n, false);
    for (std::size_t k = 0; k < n; ++k) {
      std::size_t pick = n, first = n;
      for (std::size_t j = 0; j < n && pick == n; ++j) {
        if (done[j]) continue;
        bool ready = true;
        for (const std::size_t i : preds[j]) ready = ready && done[i];
        if (!ready) continue;
        if (first == n) first = j;
        if (p.ops[base + j].code == run) pick = j;
      }
      if (pick == n) {
        pick = first;
        run = p.ops[base + pick].code;
      }
      done[pick] = true;
      out.ops.push_back(p.ops[base + pick]);
    }
  }
  return out;
}

TEST(Schedule, FollowsTheLowestIndexRunPolicy) {
  std::uint64_t seed = 60;
  for (const std::size_t ops : {std::size_t{300}, std::size_t{5000}}) {
    const Program p = random_program(ops, 32, seed++);
    Program s = p;
    schedule_runs(s);
    const Program want = reference_schedule(p);
    ASSERT_EQ(s.ops.size(), want.ops.size());
    for (std::size_t i = 0; i < s.ops.size(); ++i) {
      ASSERT_EQ(key(s.ops[i]), key(want.ops[i])) << ops << " ops, position " << i;
    }
  }
  // Compiled programs as emitted-then-scheduled and as shuffled; the
  // former are mostly windows the policy leaves in source order.
  const Netlist nl = make_iscas85_like("c880");
  for (const NamedProgram& np : compiled_programs(nl, 32)) {
    for (const Program& in : {np.program, dependency_preserving_shuffle(np.program, seed++)}) {
      Program s = in;
      schedule_runs(s);
      const Program want = reference_schedule(in);
      ASSERT_EQ(s.ops.size(), want.ops.size());
      for (std::size_t i = 0; i < s.ops.size(); ++i) {
        ASSERT_EQ(key(s.ops[i]), key(want.ops[i])) << np.name << " position " << i;
      }
    }
  }
  // The run in progress crosses a window boundary: window 2 holds an Or
  // stretch, then an And stretch, and the And run that ended window 1
  // continues with window 2's Ands first.
  std::vector<Op> ops;
  for (std::uint32_t i = 0; i < 4095; ++i) ops.push_back({OpCode::LoadWord, 0, i, i % 4, 0});
  ops.push_back({OpCode::And, 0, 4095, 0, 1});
  for (std::uint32_t i = 0; i < 10; ++i) ops.push_back({OpCode::Or, 0, 5000 + i, i, i + 1});
  for (std::uint32_t i = 0; i < 10; ++i) ops.push_back({OpCode::And, 0, 6000 + i, i, i + 1});
  Program crossing = hand_program(7000, 4, ops);
  schedule_runs(crossing);
  for (std::size_t i = 4096; i < 4106; ++i) EXPECT_EQ(crossing.ops[i].code, OpCode::And) << i;
  for (std::size_t i = 4106; i < 4116; ++i) EXPECT_EQ(crossing.ops[i].code, OpCode::Or) << i;
}

TEST(Schedule, EmptyAndSingleOpProgramsAreUnchanged) {
  Program empty = hand_program(1, 0, {});
  schedule_runs(empty);
  EXPECT_TRUE(empty.ops.empty());
  Program one = hand_program(1, 1, {{OpCode::LoadWord, 0, 0, 0, 0}});
  schedule_runs(one);
  ASSERT_EQ(one.ops.size(), 1u);
  EXPECT_EQ(one.ops[0].code, OpCode::LoadWord);
}

// ---- order-dependent metadata ------------------------------------------

void expect_same_profile(const ProgramProfile& a, const ProgramProfile& b,
                         const std::string& what) {
  EXPECT_TRUE(a.total == b.total) << what;
  EXPECT_TRUE(a.unattributed.cost == b.unattributed.cost) << what;
  ASSERT_EQ(a.levels.size(), b.levels.size()) << what;
  for (std::size_t i = 0; i < a.levels.size(); ++i) {
    EXPECT_TRUE(a.levels[i].cost == b.levels[i].cost) << what << " level " << i;
    EXPECT_EQ(a.levels[i].shift_sites_retained, b.levels[i].shift_sites_retained);
    EXPECT_EQ(a.levels[i].shift_sites_eliminated, b.levels[i].shift_sites_eliminated);
  }
  ASSERT_EQ(a.top_by_ops.size(), b.top_by_ops.size()) << what;
  for (std::size_t i = 0; i < a.top_by_ops.size(); ++i) {
    EXPECT_EQ(a.top_by_ops[i].net, b.top_by_ops[i].net) << what << " rank " << i;
    EXPECT_EQ(a.top_by_ops[i].ops, b.top_by_ops[i].ops) << what << " rank " << i;
  }
}

TEST(ScheduleMetadata, ProfileDoesNotDependOnOpOrder) {
  std::uint64_t seed = 100;
  for (const char* name : {"c432", "c880", "c6288"}) {
    const Netlist nl = make_iscas85_like(name);
    const auto check = [&](const Program& p, const ProfileAttribution& attr,
                           const std::string& what) {
      const ProgramProfile base = profile_program(p, attr);
      expect_same_profile(base, profile_program(dependency_preserving_shuffle(p, seed++), attr),
                          what);
    };
    for (const ShiftElim elim :
         {ShiftElim::None, ShiftElim::PathTracing, ShiftElim::CycleBreaking}) {
      for (const bool trimming : {false, true}) {
        const ParallelCompiled c =
            compile_parallel(nl, {.trimming = trimming, .shift_elim = elim});
        check(c.program, attribution_for(c, nl),
              std::string(name) + "/parallel elim " +
                  std::to_string(static_cast<int>(elim)) + (trimming ? " trimmed" : ""));
      }
    }
    const PCSetCompiled pc = compile_pcset(nl);
    check(pc.program, attribution_for(pc, nl), std::string(name) + "/pcset");
    const LccCompiled lcc = compile_lcc(nl);
    check(lcc.program, attribution_for(lcc, nl), std::string(name) + "/lcc");
  }
}

TEST(ScheduleMetadata, LccDefEndIsTheLastWriterOfEachNet) {
  for (const IscasProfile& prof : iscas85_profiles()) {
    const Netlist nl = make_iscas85_like(prof.name);
    for (const int w : {32, 64}) {
      const LccCompiled c = compile_lcc(nl, w);
      const Program& p = c.program;
      std::vector<std::uint32_t> last_write(p.arena_words, 0);
      for (std::uint32_t i = 0; i < p.ops.size(); ++i) last_write[p.ops[i].dst] = i + 1;
      ASSERT_EQ(c.def_end.size(), nl.net_count());
      for (std::uint32_t n = 0; n < nl.net_count(); ++n) {
        const std::uint32_t end = c.def_end[n];
        EXPECT_EQ(end, last_write[c.net_var[n]]) << prof.name << " net " << n;
        if (end > 0) {
          EXPECT_EQ(p.ops[end - 1].dst, c.net_var[n]) << prof.name << " net " << n;
        }
      }
    }
  }
}

}  // namespace
}  // namespace udsim
