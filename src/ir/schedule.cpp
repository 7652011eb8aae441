#include "ir/schedule.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace udsim {

namespace {

constexpr std::uint32_t kWindow = 4096;
constexpr std::size_t kOpCodes = static_cast<std::size_t>(OpCode::FunnelR) + 1;

/// Ready ops of one window as a two-level bitmap: bit i of words_[i / 64],
/// and bit k of summary_ while words_[k] is non-zero. 4096 = 64², so the
/// lowest ready op is two ctz away.
class ReadySet {
 public:
  void insert(std::uint32_t i) noexcept {
    words_[i >> 6] |= std::uint64_t{1} << (i & 63);
    summary_ |= std::uint64_t{1} << (i >> 6);
  }
  void erase(std::uint32_t i) noexcept {
    words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
    if (words_[i >> 6] == 0) summary_ &= ~(std::uint64_t{1} << (i >> 6));
  }
  /// Removes the lowest non-empty block of 64 slots; returns its index and
  /// its bits in `bits`.
  std::uint32_t take_lowest_block(std::uint64_t& bits) noexcept {
    const auto k = static_cast<std::uint32_t>(std::countr_zero(summary_));
    bits = words_[k];
    words_[k] = 0;
    summary_ &= summary_ - 1;
    return k;
  }
  [[nodiscard]] bool empty() const noexcept { return summary_ == 0; }
  [[nodiscard]] std::uint32_t lowest() const noexcept {
    const auto k = static_cast<std::uint32_t>(std::countr_zero(summary_));
    return k * 64 + static_cast<std::uint32_t>(std::countr_zero(words_[k]));
  }

 private:
  std::uint64_t summary_ = 0;
  std::array<std::uint64_t, kWindow / 64> words_{};
};
static_assert(kWindow == 64 * 64);

constexpr std::uint8_t kReadsA = 1, kReadsB = 2, kReadsDst = 4;

/// Per opcode: which of a, b and dst it reads as arena words.
constexpr std::array<std::uint8_t, kOpCodes> kReadMask = [] {
  std::array<std::uint8_t, kOpCodes> m{};
  for (std::size_t c = 0; c < kOpCodes; ++c) {
    const OpReads r = arena_reads(Op{static_cast<OpCode>(c), 0, 0, 1, 2});
    for (int k = 0; k < r.count; ++k) {
      m[c] |= r.word[k] == 0 ? kReadsDst : static_cast<std::uint8_t>(r.word[k]);
    }
  }
  return m;
}();

class RunScheduler {
 public:
  /// `window` ops at most per schedule() call. Every temporary is sized
  /// here, once: per window op one copy, two reader records and three
  /// dependency edges; plus word_state_ over the arena.
  RunScheduler(std::uint32_t arena_words, std::uint32_t window)
      : word_state_(arena_words, kUntouched),
        buf_(window),
        reader_op_(2 * window),
        reader_next_(2 * window),
        reader_code_(2 * window),
        succ_head_(window),
        value_readers_(window),
        indeg_(window),
        edge_to_(3 * window),
        edge_next_(3 * window) {}

  /// Reorders ops[0, n), 0 < n <= window, in place. `run` is the opcode of
  /// the run in progress; it carries over from the previous window.
  void schedule(Op* ops, std::uint32_t n, OpCode& run) {
    if (keeps_source_order(ops, n, run)) {
      run = ops[n - 1].code;
      return;
    }
    build_edges(ops, n);
    for (std::uint32_t i = 0; i < n; ++i) {
      if (indeg_[i] == 0) make_ready(i);
    }
    // The run takes ops from its lowest block of 64 ready ops, held in a
    // register: an op it makes ready joins that block there when it has
    // the run's opcode, so the next pick never waits on a bitmap store.
    // Every op made ready has a higher index than the op that released it,
    // so no op of the run's opcode becomes ready below the block.
    std::size_t c = index(run);
    std::uint32_t block = 0;
    std::uint64_t bits = 0;
    for (std::uint32_t k = 0; k < n; ++k) {
      if (bits == 0) {
        if (ready_[c].empty()) c = index(buf_[all_.lowest()].code);
        block = ready_[c].take_lowest_block(bits);
      }
      const std::uint32_t i = block * 64 + static_cast<std::uint32_t>(std::countr_zero(bits));
      bits &= bits - 1;
      all_.erase(i);
      ops[k] = buf_[i];
      const auto release = [&](std::uint32_t j, std::size_t code) {
        if (--indeg_[j] != 0) return;
        all_.insert(j);
        if (code == c && (j >> 6) == block) {
          bits |= std::uint64_t{1} << (j & 63);
        } else {
          ready_[code].insert(j);
        }
      };
      for (std::uint16_t x = value_readers_[i]; x != kNoReader; x = reader_next_[x]) {
        release(reader_op_[x], reader_code_[x]);
      }
      for (std::uint16_t e = succ_head_[i]; e != kNoEdge; e = edge_next_[e]) {
        release(edge_to_[e], index(buf_[edge_to_[e]].code));
      }
    }
    run = static_cast<OpCode>(c);
  }

 private:
  /// True when the policy would return the window unchanged: each opcode
  /// fills one contiguous stretch of it, and the run in progress continues
  /// into the first stretch or has no op here. Every run then takes its
  /// stretch in source order (each op is ready once all lower-index ops
  /// are placed) and the next run starts where it ends.
  static bool keeps_source_order(const Op* ops, std::uint32_t n, OpCode run) {
    std::uint32_t seen = 1u << index(ops[0].code);
    for (std::uint32_t i = 1; i < n; ++i) {
      if (ops[i].code == ops[i - 1].code) continue;
      const std::uint32_t bit = 1u << index(ops[i].code);
      if (seen & bit) return false;
      seen |= bit;
    }
    return run == ops[0].code || (seen & (1u << index(run))) == 0;
  }

  static constexpr std::uint16_t kNoOp = 0xffff;
  static constexpr std::uint16_t kNoEdge = 0xffff;
  static constexpr std::uint16_t kNoReader = 0xffff;
  /// word_state_ entry: the window's last writer of the word (low half)
  /// and the head of the list of that value's readers (high half).
  static constexpr std::uint32_t kUntouched =
      (std::uint32_t{kNoReader} << 16) | kNoOp;

  [[nodiscard]] static std::size_t index(OpCode c) noexcept {
    assert(static_cast<std::size_t>(c) < kOpCodes);
    return static_cast<std::size_t>(c);
  }

  void make_ready(std::uint32_t i) noexcept {
    ready_[index(buf_[i].code)].insert(i);
    all_.insert(i);
  }

  void edge(std::uint32_t from, std::uint32_t to) noexcept {
    if (from == kNoOp) return;
    edge_to_[edges_] = static_cast<std::uint16_t>(to);
    edge_next_[edges_] = succ_head_[from];
    succ_head_[from] = edges_++;
    ++indeg_[to];
  }

  /// Registers op i as a reader of the current value of `word`, after the
  /// value's writer when it is in this window.
  void add_reader(std::uint32_t word, std::uint32_t i) noexcept {
    assert(word < word_state_.size());
    std::uint32_t& st = word_state_[word];
    indeg_[i] = static_cast<std::uint16_t>(indeg_[i] + ((st & 0xffffu) != kNoOp));
    reader_op_[readers_] = static_cast<std::uint16_t>(i);
    reader_code_[readers_] = static_cast<std::uint8_t>(buf_[i].code);
    reader_next_[readers_] = static_cast<std::uint16_t>(st >> 16);
    st = (std::uint32_t{readers_} << 16) | (st & 0xffffu);
    ++readers_;
  }

  /// Dependency graph of one window. The readers of the value op i writes
  /// (its read-after-write successors) are the reader list of that value,
  /// kept in value_readers_[i]; every other successor is an edge.
  void build_edges(const Op* ops, std::uint32_t n) {
    std::copy(ops, ops + n, buf_.begin());
    std::fill_n(succ_head_.begin(), n, kNoEdge);
    std::fill_n(indeg_.begin(), n, std::uint16_t{0});
    edges_ = readers_ = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      const Op& op = buf_[i];
      const std::uint8_t m = kReadMask[index(op.code)];
      assert(op.dst < word_state_.size());
      std::uint32_t& dst = word_state_[op.dst];
      const std::uint32_t prev = dst & 0xffffu;
      edge(prev, i);  // RAW of a read-modify-write, else WAW
      for (std::uint32_t x = dst >> 16; x != kNoReader; x = reader_next_[x]) {
        edge(reader_op_[x], i);  // WAR
      }
      if (prev != kNoOp) value_readers_[prev] = static_cast<std::uint16_t>(dst >> 16);
      // RAW through the reader lists; a read of dst saw the value this op
      // replaces and is ordered by the edge above.
      if ((m & kReadsA) && op.a != op.dst) add_reader(op.a, i);
      if ((m & kReadsB) && op.b != op.dst) add_reader(op.b, i);
      dst = (std::uint32_t{kNoReader} << 16) | i;
    }
    // The last value of each word keeps its reader list; then every word
    // the window touched (a dst or an arena read of its ops) is reset.
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t st = word_state_[buf_[i].dst];
      if ((st & 0xffffu) == i) value_readers_[i] = static_cast<std::uint16_t>(st >> 16);
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      const Op& op = buf_[i];
      const std::uint8_t m = kReadMask[index(op.code)];
      word_state_[op.dst] = kUntouched;
      if (m & kReadsA) word_state_[op.a] = kUntouched;
      if (m & kReadsB) word_state_[op.b] = kUntouched;
    }
  }

  std::vector<std::uint32_t> word_state_;  ///< per arena word
  std::vector<Op> buf_;                    ///< the window in source order
  std::vector<std::uint16_t> reader_op_, reader_next_;
  std::vector<std::uint8_t> reader_code_;  ///< opcode of reader_op_
  std::vector<std::uint16_t> succ_head_, value_readers_, indeg_;  ///< per op
  std::vector<std::uint16_t> edge_to_, edge_next_;
  std::uint16_t readers_ = 0, edges_ = 0;
  std::array<ReadySet, kOpCodes> ready_{};
  ReadySet all_;
};

/// Step 1 of schedule_runs(p, first_scratch): checks the scratch contract,
/// then gives every plain write to a scratch word the next virtual word
/// from first_scratch up. Returns the number of virtual words.
std::uint32_t rename_scratch(Program& p, std::uint32_t first_scratch) {
  const std::uint32_t scratch_words = p.arena_words - first_scratch;
  for (const Program::InitWord& iw : p.arena_init) {
    if (iw.index >= first_scratch) {
      throw std::invalid_argument("schedule_runs: scratch word " +
                                  std::to_string(iw.index) + " has an arena_init entry");
    }
  }
  // written[w]: word w holds a value of this pass; words below
  // first_scratch always count.
  std::vector<std::uint8_t> written(p.arena_words, 1);
  std::fill(written.begin() + first_scratch, written.end(), 0);
  for (std::size_t i = 0; i < p.ops.size(); ++i) {
    const Op& op = p.ops[i];
    const std::uint8_t m = kReadMask[static_cast<std::size_t>(op.code)];
    if (((m & kReadsA) && !written[op.a]) || ((m & kReadsB) && !written[op.b]) ||
        ((m & kReadsDst) && !written[op.dst])) {
      throw std::invalid_argument("schedule_runs: op " + std::to_string(i) +
                                  " reads a scratch word before the pass writes it");
    }
    written[op.dst] = 1;
  }
  // current[w]: the virtual word holding scratch word first_scratch + w.
  std::vector<std::uint32_t> current(scratch_words);
  std::uint32_t values = 0;
  for (Op& op : p.ops) {
    const std::uint8_t m = kReadMask[static_cast<std::size_t>(op.code)];
    if ((m & kReadsA) && op.a >= first_scratch) op.a = current[op.a - first_scratch];
    if ((m & kReadsB) && op.b >= first_scratch) op.b = current[op.b - first_scratch];
    if (op.dst < first_scratch) continue;
    std::uint32_t& value = current[op.dst - first_scratch];
    if ((m & kReadsDst) == 0) value = first_scratch + values++;
    op.dst = value;
  }
  return values;
}

/// Step 3: linear scan of the scheduled ops over `values` virtual words.
/// Rewrites every scratch access to its physical word and returns the
/// number of physical words, the peak of live values.
std::uint32_t allocate_scratch(Program& p, std::uint32_t first_scratch,
                               std::uint32_t values) {
  constexpr std::uint32_t kNoValue = 0xffffffffu;
  const auto n = static_cast<std::uint32_t>(p.ops.size());
  std::vector<std::uint32_t> last(values, 0);  ///< index of the last access
  for (std::uint32_t i = 0; i < n; ++i) {
    const Op& op = p.ops[i];
    const std::uint8_t m = kReadMask[static_cast<std::size_t>(op.code)];
    if ((m & kReadsA) && op.a >= first_scratch) last[op.a - first_scratch] = i;
    if ((m & kReadsB) && op.b >= first_scratch) last[op.b - first_scratch] = i;
    if (op.dst >= first_scratch) last[op.dst - first_scratch] = i;
  }
  std::vector<std::uint32_t> word(values);
  // Free physical words as a bitmap, searched upward from the lowest word
  // of 64 that may hold one.
  std::vector<std::uint64_t> free_bits;
  std::uint32_t lowest = 0;
  std::uint32_t peak = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    Op& op = p.ops[i];
    const std::uint8_t m = kReadMask[static_cast<std::size_t>(op.code)];
    const std::uint32_t dst = op.dst >= first_scratch ? op.dst - first_scratch : kNoValue;
    // Frees value v's word when op i is its last access.
    const auto release = [&](std::uint32_t v) {
      if (last[v] != i) return;
      free_bits[word[v] >> 6] |= std::uint64_t{1} << (word[v] & 63);
      lowest = std::min(lowest, word[v] >> 6);
    };
    const auto read = [&](std::uint32_t& w) {
      if (w < first_scratch) return;
      const std::uint32_t v = w - first_scratch;
      w = first_scratch + word[v];
      if (v != dst) release(v);  // a read-modify-write's dst value lives on
    };
    if (m & kReadsA) read(op.a);
    if (m & kReadsB) read(op.b);
    if (dst == kNoValue) continue;
    if ((m & kReadsDst) == 0) {
      while (lowest < free_bits.size() && free_bits[lowest] == 0) ++lowest;
      if (lowest == free_bits.size()) {
        word[dst] = peak++;
        if (free_bits.size() * 64 < peak) free_bits.push_back(0);
      } else {
        word[dst] = lowest * 64 + static_cast<std::uint32_t>(std::countr_zero(free_bits[lowest]));
        free_bits[lowest] &= free_bits[lowest] - 1;
      }
    }
    op.dst = first_scratch + word[dst];
    release(dst);
  }
  return peak;
}

}  // namespace

void schedule_runs(Program& p) { schedule_runs(p, p.arena_words); }

void schedule_runs(Program& p, std::uint32_t first_scratch) {
  // Compilers push_back ops; the program lives as long as its engine.
  p.ops.shrink_to_fit();
  const bool scratch = first_scratch < p.arena_words;
  const std::uint32_t values = scratch ? rename_scratch(p, first_scratch) : 0;
  if (p.ops.size() >= 2) {
    RunScheduler scheduler(scratch ? first_scratch + values : p.arena_words,
                           static_cast<std::uint32_t>(
                               std::min<std::size_t>(kWindow, p.ops.size())));
    OpCode run = p.ops.front().code;
    for (std::size_t base = 0; base < p.ops.size(); base += kWindow) {
      const auto n = static_cast<std::uint32_t>(
          std::min<std::size_t>(kWindow, p.ops.size() - base));
      scheduler.schedule(p.ops.data() + base, n, run);
    }
  }
  if (scratch) p.arena_words = first_scratch + allocate_scratch(p, first_scratch, values);
}

std::size_t opcode_runs(const Program& p) noexcept {
  std::size_t runs = p.ops.empty() ? 0 : 1;
  for (std::size_t i = 1; i < p.ops.size(); ++i) runs += p.ops[i].code != p.ops[i - 1].code;
  return runs;
}

}  // namespace udsim
