// Run ordering: the last step of every compiler that returns a Program.
//
// The threaded executor (ir/executor.h) pays one indirect jump per change
// of opcode, and on mixed-opcode programs that jump mispredicts. The
// paper's compiled code has no branches at all, so the compilers hand the
// executor ops grouped into runs of one opcode, each run one tight loop.
#pragma once

#include "ir/program.h"

namespace udsim {

/// Reorder `p.ops` in place into same-opcode runs without changing what a
/// pass computes. Every read-after-write, write-after-read and
/// write-after-write pair on an arena word keeps its source order; input
/// reads are not hazards. The current run grows by its lowest-index ready
/// op; when no op of that opcode is ready, the next run starts at the
/// lowest-index ready op overall, which keeps arena locality.
///
/// Works in fixed windows of 4096 source ops (an op never leaves its
/// window, so earlier windows have met every cross-window dependency).
/// Linear time; temporaries are one window plus one arena-sized index
/// array. The op multiset, arena_init and every other field are unchanged;
/// the op vector's spare capacity is released.
/// Every arena word an op reads or writes must lie below `p.arena_words`, as
/// in every compiled program (validate_program's ProgramOpBounds).
void schedule_runs(Program& p);

/// As above, with the arena words from `first_scratch` up to `p.arena_words`
/// treated as pass-local temporaries: every scratch value is written in the
/// pass before it is read, has no arena_init entry and is never probed, so
/// only the values a pass computes matter, not the words that hold them.
/// In three steps:
///   1. each plain write to a scratch word starts a new value with a
///      virtual word of its own, and its readers read that word; a
///      read-modify-write (Acc*, ShlOr, MaskShlOr, MaskedCopy) continues
///      the value current at its dst;
///   2. the ops are scheduled as above, so scratch ops wait only on true
///      dependencies, not on the reuse of a word;
///   3. a linear scan of the scheduled ops gives each value the lowest
///      free scratch word at its first write and frees the word after its
///      last access (an op reads its operands before it writes, so its
///      result may take the word of an operand that dies at it).
/// Then `p.arena_words = first_scratch + ` the peak number of live scratch
/// values. Ops, arena_init and every word below first_scratch keep their
/// values after every pass; only scratch word numbers change. With
/// `first_scratch >= p.arena_words` this is the overload above.
/// Throws std::invalid_argument, leaving `p` unchanged, when a scratch word
/// is read before any write in the pass or has an arena_init entry.
void schedule_runs(Program& p, std::uint32_t first_scratch);

/// The number of same-opcode runs in `p.ops`: the threaded executor's
/// indirect jumps per pass.
[[nodiscard]] std::size_t opcode_runs(const Program& p) noexcept;

}  // namespace udsim
