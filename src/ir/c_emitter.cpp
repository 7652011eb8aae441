#include "ir/c_emitter.h"

#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace udsim {

namespace {

std::string ref(const CEmitOptions& opts, std::span<const std::string> names,
                std::uint32_t idx) {
  std::ostringstream os;
  os << opts.arena_name << "[" << idx << "]";
  if (opts.comments && idx < names.size() && !names[idx].empty()) {
    os << " /* " << names[idx] << " */";
  }
  return os.str();
}

}  // namespace

std::string op_to_c(const Program& p, const Op& op, const CEmitOptions& opts,
                    std::span<const std::string> names) {
  const unsigned W = static_cast<unsigned>(p.word_bits);
  // Literals must carry the arena's width: a 32-bit `~0u` or `1u << 40`
  // zero-extended into a uint64_t arena would silently miscompute.
  const char* kOnes = W == 64 ? "~0ull" : "~0u";
  const char* kZero = W == 64 ? "0ull" : "0u";
  const char* kOne = W == 64 ? "1ull" : "1u";
  const std::string d = ref(opts, names, op.dst);
  const std::string a = op.code == OpCode::LoadBit || op.code == OpCode::LoadBcast ||
                                op.code == OpCode::LoadWord
                            ? "in[" + std::to_string(op.a) + "]"
                            : ref(opts, names, op.a);
  const std::string b = ref(opts, names, op.b);
  std::ostringstream os;
  switch (op.code) {
    case OpCode::Const:
      os << d << " = " << (op.imm ? kOnes : kZero) << ";";
      break;
    case OpCode::Copy:
      os << d << " = " << a << ";";
      break;
    case OpCode::Not:
      os << d << " = ~" << a << ";";
      break;
    case OpCode::And:
      os << d << " = " << a << " & " << b << ";";
      break;
    case OpCode::Or:
      os << d << " = " << a << " | " << b << ";";
      break;
    case OpCode::Xor:
      os << d << " = " << a << " ^ " << b << ";";
      break;
    case OpCode::Nand:
      os << d << " = ~(" << a << " & " << b << ");";
      break;
    case OpCode::Nor:
      os << d << " = ~(" << a << " | " << b << ");";
      break;
    case OpCode::Xnor:
      os << d << " = ~(" << a << " ^ " << b << ");";
      break;
    case OpCode::AccAnd:
      os << d << " &= " << a << ";";
      break;
    case OpCode::AccOr:
      os << d << " |= " << a << ";";
      break;
    case OpCode::AccXor:
      os << d << " ^= " << a << ";";
      break;
    case OpCode::MaskedCopy:
      os << d << " = (" << d << " & ~" << b << ") | (" << a << " & " << b << ");";
      break;
    case OpCode::LoadBit:
      os << d << " = " << a << " & " << kOne << ";";
      break;
    case OpCode::LoadBcast:
      os << d << " = " << kZero << " - (" << a << " & " << kOne << ");";
      break;
    case OpCode::LoadWord:
      os << d << " = " << a << ";";
      break;
    case OpCode::ExtractBit:
      os << d << " = (" << a << " >> " << unsigned{op.imm} << ") & " << kOne << ";";
      break;
    case OpCode::BcastBit:
      os << d << " = " << kZero << " - ((" << a << " >> " << unsigned{op.imm}
         << ") & " << kOne << ");";
      break;
    case OpCode::Shl:
      os << d << " = " << a << " << " << unsigned{op.imm} << ";";
      break;
    case OpCode::Shr:
      os << d << " = " << a << " >> " << unsigned{op.imm} << ";";
      break;
    case OpCode::ShlOr:
      os << d << " |= " << a << " << " << unsigned{op.imm} << ";";
      break;
    case OpCode::MaskShlOr:
      os << d << " = (" << d << " & ((" << kOne << " << " << unsigned{op.imm}
         << ") - " << kOne << ")) | (" << a << " << " << unsigned{op.imm} << ");";
      break;
    case OpCode::FunnelL:
      os << d << " = (" << a << " << " << unsigned{op.imm} << ") | (" << b << " >> "
         << (W - op.imm) << ");";
      break;
    case OpCode::FunnelR:
      os << d << " = (" << a << " >> " << unsigned{op.imm} << ") | (" << b << " << "
         << (W - op.imm) << ");";
      break;
  }
  return os.str();
}

void emit_c(std::ostream& os, const Program& p, const CEmitOptions& opts,
            std::span<const std::string> names) {
  if (p.word_bits != 32 && p.word_bits != 64) {
    // Portable C has no standard 128/256-bit integer; the wide lanes are
    // IR-executor-only (the fallback chain skips Native above 64 bits).
    throw std::invalid_argument(
        "emit_c: word_bits " + std::to_string(p.word_bits) +
        " has no portable C word type (native backend supports 32/64 only)");
  }
  const char* word_type = p.word_bits == 64 ? "uint64_t" : "uint32_t";
  const char* suffix = p.word_bits == 64 ? "ull" : "u";
  const std::string& fn = opts.function_name;
  const std::string& ar = opts.arena_name;
  const std::string arena_param = std::string(word_type) + " *" + ar;
  os << "/* generated by udsim */\n#include <stdint.h>\n\n";
  if (!opts.batch_entry) {
    // Historical layout: the arena is a zero-initialized global, as in the
    // paper's figures.
    os << word_type << " " << ar << "[" << p.arena_words << "];\n\n";
    os << "void " << fn << "_init(void) {\n";
  } else {
    // Native-backend layout: the arena is caller-owned (the backend keeps it
    // across dlclose/reload and snapshots it for checkpoints), so every entry
    // point takes it as the first parameter, and _init must zero it — a
    // malloc'd arena has no static storage guarantee.
    os << "void " << fn << "_init(" << arena_param << ") {\n";
    os << "  uint32_t i;\n";
    os << "  for (i = 0; i < " << p.arena_words << "u; ++i) " << ar << "[i] = 0"
       << suffix << ";\n";
  }
  for (const Program::InitWord& iw : p.arena_init) {
    os << "  " << ar << "[" << iw.index << "] = " << iw.value << suffix << ";\n";
  }
  os << "}\n\n";
  os << "void " << fn << "(" << (opts.batch_entry ? arena_param + ", " : "") << "const "
     << word_type << " *in) {\n";
  for (const Op& op : p.ops) {
    os << "  " << op_to_c(p, op, opts, names) << "\n";
  }
  os << "}\n";
  if (!opts.batch_entry) return;
  os << "\nvoid " << fn << "_run(" << arena_param << ", const " << word_type
     << " *in, uint64_t n_vectors) {\n";
  os << "  uint64_t v;\n";
  os << "  for (v = 0; v < n_vectors; ++v) {\n";
  os << "    " << fn << "(" << ar << ", in);\n";
  os << "    in += " << p.input_words << "u;\n";
  os << "  }\n";
  os << "}\n";
}

}  // namespace udsim
