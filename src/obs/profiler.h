// Program profiler: attribute per-pass execution cost back to circuit
// structure (DESIGN.md §5g).
//
// A compiled Program is straight-line, so its cost decomposition is exact,
// not sampled: every op runs once per pass, every op stores to exactly one
// arena word, and every arena word either belongs to a net's variable /
// bit-field or is gate-local scratch that feeds the next net store. Walking
// the op vector once therefore attributes 100% of program_pass_cost to
// (level, net) buckets — the profile's level totals *sum exactly* to
// program_pass_cost, which the invariant tests assert for every ISCAS
// profile × engine variant.
//
// Scratch attribution follows dataflow: gates compute into scratch words
// and then store to the owning net's field, so a single backward scan hands
// each scratch op to the net store that consumes its value (the lowest
// (level, net) when several do). The profile therefore does not depend on
// op order, only on dataflow, and is the same for a compiler's emission
// order and its run order (ir/schedule.h). Scratch values no net store
// consumes land in the explicit `unattributed` bucket rather than being
// dropped, keeping the sum lossless by construction.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/program.h"
#include "obs/pass_cost.h"

namespace udsim {

class Netlist;
struct ParallelCompiled;
struct LccCompiled;
struct PCSetCompiled;

/// Maps arena words of one compiled Program back to nets and levels. Built
/// per engine family from the provenance each compiler already keeps
/// (net_base/net_words + Levelization, net_var, PC-set net_vars).
struct ProfileAttribution {
  static constexpr std::uint32_t kNoNet = 0xffffffffu;

  std::vector<std::uint32_t> word_net;  ///< arena word → net, or kNoNet (scratch)
  std::vector<int> word_level;          ///< arena word → time/level; -1 unknown
  std::vector<std::string> net_name;    ///< per net (may be empty)
  std::vector<int> net_level;           ///< per net: settle level
  std::vector<std::uint64_t> net_arena_words;  ///< per net: field size in words
  int depth = 0;                        ///< max level (levels = depth + 1)

  /// Shift-site ledger bucketed by gate level (parallel engines only; empty
  /// otherwise). Sums match the compile.shift_sites_* counters.
  std::vector<std::uint64_t> level_shift_sites_retained;
  std::vector<std::uint64_t> level_shift_sites_eliminated;
};

[[nodiscard]] ProfileAttribution attribution_for(const ParallelCompiled& c,
                                                 const Netlist& nl);
[[nodiscard]] ProfileAttribution attribution_for(const LccCompiled& c,
                                                 const Netlist& nl);
[[nodiscard]] ProfileAttribution attribution_for(const PCSetCompiled& c,
                                                 const Netlist& nl);

/// Cost bucket for one level of the levelized circuit.
struct ProfileLevel {
  int level = 0;
  ProgramPassCost cost;
  std::uint64_t shift_sites_retained = 0;
  std::uint64_t shift_sites_eliminated = 0;
};

/// One hot net in a top-K ranking.
struct ProfileNet {
  std::uint32_t net = 0;
  std::string name;
  int level = 0;
  std::uint64_t arena_words = 0;
  std::uint64_t ops = 0;  ///< per-pass ops attributed to this net
};

/// Exact structural cost profile of one compiled Program.
struct ProgramProfile {
  ProgramPassCost total;        ///< == program_pass_cost(program)
  ProfileLevel unattributed;    ///< ops no net store claims (level = -1)
  std::vector<ProfileLevel> levels;       ///< index == level
  std::vector<ProfileNet> top_by_ops;
  std::vector<ProfileNet> top_by_arena_words;

  [[nodiscard]] bool engaged() const noexcept {
    return total.ops != 0 || !levels.empty();
  }
  [[nodiscard]] std::string to_json() const;
};

/// One scan of the op vector against the attribution. Lossless: the sum of
/// all level costs plus `unattributed` equals `total` field-for-field.
[[nodiscard]] ProgramProfile profile_program(const Program& p,
                                             const ProfileAttribution& attr,
                                             std::size_t top_k = 8);

}  // namespace udsim
