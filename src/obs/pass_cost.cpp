#include "obs/pass_cost.h"

namespace udsim {

ProgramPassCost program_pass_cost(const Program& p) {
  ProgramPassCost c;
  for (const Op& op : p.ops) c += op_pass_cost(op);
  return c;
}

ProgramPassCost op_pass_cost(const Op& op) {
  ProgramPassCost c;
  c.ops = 1;
  c.words_written = 1;  // every op stores exactly one arena word
  switch (op.code) {
    case OpCode::Const:
      break;  // no arena read
    case OpCode::Copy:
    case OpCode::Not:
    case OpCode::ExtractBit:
    case OpCode::BcastBit:
      c.words_read += 1;
      break;
    case OpCode::And:
    case OpCode::Or:
    case OpCode::Xor:
    case OpCode::Nand:
    case OpCode::Nor:
    case OpCode::Xnor:
      c.words_read += 2;
      break;
    case OpCode::AccAnd:
    case OpCode::AccOr:
    case OpCode::AccXor:
      c.words_read += 2;  // dst and a
      break;
    case OpCode::MaskedCopy:
      c.words_read += 3;  // dst, a, b
      break;
    case OpCode::LoadBit:
    case OpCode::LoadBcast:
    case OpCode::LoadWord:
      break;  // input span, not arena
    case OpCode::Shl:
    case OpCode::Shr:
      c.words_read += 1;
      break;
    case OpCode::ShlOr:
    case OpCode::MaskShlOr:
      c.words_read += 2;  // dst and a
      break;
    case OpCode::FunnelL:
    case OpCode::FunnelR:
      c.words_read += 2;
      break;
  }
  switch (op.code) {
    case OpCode::Shl:
    case OpCode::Shr:
    case OpCode::ShlOr:
    case OpCode::MaskShlOr:
    case OpCode::FunnelL:
    case OpCode::FunnelR:
      ++c.shift_ops;
      break;
    case OpCode::LoadBit:
    case OpCode::LoadBcast:
    case OpCode::LoadWord:
      ++c.load_ops;
      break;
    case OpCode::Not:
    case OpCode::And:
    case OpCode::Or:
    case OpCode::Xor:
    case OpCode::Nand:
    case OpCode::Nor:
    case OpCode::Xnor:
    case OpCode::AccAnd:
    case OpCode::AccOr:
    case OpCode::AccXor:
    case OpCode::MaskedCopy:
      ++c.gate_ops;
      break;
    default:
      break;  // Const/Copy/ExtractBit/BcastBit: data movement
  }
  return c;
}

ExecCounters ExecCounters::attach(MetricsRegistry* reg, const Program& program,
                                  const PassExtras& extra_per_pass) {
  ExecCounters e;
  if (!reg) return e;
  e.cost = program_pass_cost(program);
  // One deterministic histogram sample per attach: the program size. Keeps
  // the histogram section of golden fixtures non-empty and engine-shaped
  // without depending on wall time (timing histograms are "*.ns"/"*.us" and
  // filtered out of the deterministic subset).
  reg->histogram("exec.program_ops").record(e.cost.ops);
  e.vectors = &reg->counter("sim.vectors");
  e.passes = &reg->counter("exec.passes");
  e.ops = &reg->counter("exec.ops");
  e.words_written = &reg->counter("exec.words_written");
  e.words_read = &reg->counter("exec.words_read");
  e.shift_ops = &reg->counter("exec.shift_ops");
  e.load_ops = &reg->counter("exec.load_ops");
  e.gate_ops = &reg->counter("exec.gate_ops");
  for (const auto& [name, per_pass] : extra_per_pass) {
    e.extras.emplace_back(&reg->counter(name), per_pass);
  }
  return e;
}

}  // namespace udsim
