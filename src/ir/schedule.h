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

}  // namespace udsim
