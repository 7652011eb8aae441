#include "ir/program.h"

namespace udsim {

namespace {

[[nodiscard]] bool lane_wise(OpCode c) noexcept {
  switch (c) {
    case OpCode::LoadBit:
    case OpCode::LoadBcast:
    case OpCode::ExtractBit:
    case OpCode::BcastBit:
    case OpCode::Shl:
    case OpCode::Shr:
    case OpCode::ShlOr:
    case OpCode::MaskShlOr:
    case OpCode::FunnelL:
    case OpCode::FunnelR:
      return false;
    default:
      return true;
  }
}

}  // namespace

bool lane_parallel(const Program& p, std::span<const ArenaProbe> probes) {
  std::vector<bool> written(p.arena_words, false);
  for (const Op& op : p.ops) {
    if (!lane_wise(op.code) || op.dst >= p.arena_words) return false;
    written[op.dst] = true;
  }
  for (const Program::InitWord& iw : p.arena_init) {
    if (iw.value != 0 && iw.value != ~std::uint64_t{0}) return false;
  }
  // fresh[w]: w's current value depends only on this pass's inputs and on
  // constants. A word no op writes holds its init value (or 0) forever; any
  // other word holds the previous pass's value until the pass writes it.
  std::vector<bool> fresh(p.arena_words);
  for (std::uint32_t w = 0; w < p.arena_words; ++w) fresh[w] = !written[w];
  const auto read = [&](std::uint32_t w) { return w < p.arena_words && fresh[w]; };
  for (const Op& op : p.ops) {
    const OpReads r = arena_reads(op);
    bool f = true;
    for (int k = 0; k < r.count; ++k) f = f && read(r.word[k]);
    fresh[op.dst] = f;
  }
  for (const ArenaProbe& pr : probes) {
    if (pr.bit != 0 || !read(pr.word)) return false;
  }
  return true;
}

}  // namespace udsim
