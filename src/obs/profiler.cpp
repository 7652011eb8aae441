#include "obs/profiler.h"

#include <algorithm>
#include <numeric>

#include "analysis/levelize.h"
#include "lcc/lcc.h"
#include "netlist/netlist.h"
#include "obs/json.h"
#include "parsim/parallel_sim.h"
#include "pcsim/pcset_sim.h"

namespace udsim {

namespace {

void size_net_tables(ProfileAttribution& a, const Netlist& nl,
                     std::size_t arena_words) {
  const std::size_t nets = nl.net_count();
  a.word_net.assign(arena_words, ProfileAttribution::kNoNet);
  a.word_level.assign(arena_words, -1);
  a.net_name.resize(nets);
  a.net_level.assign(nets, 0);
  a.net_arena_words.assign(nets, 0);
  for (std::uint32_t n = 0; n < nets; ++n) a.net_name[n] = nl.net(NetId{n}).name;
}

}  // namespace

ProfileAttribution attribution_for(const ParallelCompiled& c,
                                   const Netlist& nl) {
  ProfileAttribution a;
  size_net_tables(a, nl, c.program.arena_words);
  a.depth = c.lv.depth;
  const int W = c.options.word_bits;
  for (std::uint32_t n = 0; n < nl.net_count(); ++n) {
    a.net_level[n] = c.lv.net_level[n];
    a.net_arena_words[n] = c.net_words[n];
    for (std::uint32_t w = 0; w < c.net_words[n]; ++w) {
      const std::uint32_t idx = c.net_base[n] + w;
      a.word_net[idx] = n;
      // Settle time of this field word: the time of its highest bit,
      // clamped to the net's level (trailing bits hold the stable value).
      a.word_level[idx] =
          std::min(c.plan.net_align[n] + static_cast<int>(w + 1) * W - 1,
                   c.lv.net_level[n]);
    }
  }
  // Shift-site ledger per gate level: the same walk as the compiler's
  // record_shift_sites (distinct (gate, input) pairs plus one output site
  // per non-constant gate), bucketed by the gate's level so the profile
  // shows *where* shift elimination pays off. Sums equal the
  // compile.shift_sites_* counters (asserted in tests/profiler_test.cpp).
  a.level_shift_sites_retained.assign(a.depth + 1, 0);
  a.level_shift_sites_eliminated.assign(a.depth + 1, 0);
  std::vector<std::uint32_t> seen;
  for (std::uint32_t gi = 0; gi < nl.gate_count(); ++gi) {
    const GateId gid{gi};
    const Gate& g = nl.gate(gid);
    if (is_constant(g.type)) continue;
    const int glv = std::clamp(c.lv.gate_level[gi], 0, a.depth);
    seen.clear();
    for (NetId in : g.inputs) {
      if (std::find(seen.begin(), seen.end(), in.value) != seen.end()) continue;
      seen.push_back(in.value);
      if (c.plan.input_shift(nl, gid, in) != 0) {
        ++a.level_shift_sites_retained[glv];
      } else {
        ++a.level_shift_sites_eliminated[glv];
      }
    }
    if (c.plan.output_shift(nl, gid) != 0) {
      ++a.level_shift_sites_retained[glv];
    } else {
      ++a.level_shift_sites_eliminated[glv];
    }
  }
  return a;
}

ProfileAttribution attribution_for(const LccCompiled& c, const Netlist& nl) {
  ProfileAttribution a;
  size_net_tables(a, nl, c.program.arena_words);
  const Levelization lv = levelize(nl);
  a.depth = lv.depth;
  for (std::uint32_t n = 0; n < nl.net_count(); ++n) {
    a.net_level[n] = lv.net_level[n];
    a.net_arena_words[n] = 1;
    a.word_net[c.net_var[n]] = n;
    a.word_level[c.net_var[n]] = lv.net_level[n];
  }
  return a;
}

ProfileAttribution attribution_for(const PCSetCompiled& c, const Netlist& nl) {
  ProfileAttribution a;
  size_net_tables(a, nl, c.program.arena_words);
  for (std::uint32_t n = 0; n < nl.net_count(); ++n) {
    const auto& vars = c.net_vars[n];
    a.net_arena_words[n] = vars.size();
    for (const auto& [time, word] : vars) {
      a.word_net[word] = n;
      a.word_level[word] = time;
      a.depth = std::max(a.depth, time);
    }
    if (!vars.empty()) a.net_level[n] = vars.back().first;
  }
  return a;
}

ProgramProfile profile_program(const Program& p, const ProfileAttribution& attr,
                               std::size_t top_k) {
  ProgramProfile prof;
  prof.unattributed.level = -1;
  prof.levels.resize(static_cast<std::size_t>(attr.depth) + 1);
  for (std::size_t i = 0; i < prof.levels.size(); ++i) {
    prof.levels[i].level = static_cast<int>(i);
    if (i < attr.level_shift_sites_retained.size()) {
      prof.levels[i].shift_sites_retained = attr.level_shift_sites_retained[i];
      prof.levels[i].shift_sites_eliminated =
          attr.level_shift_sites_eliminated[i];
    }
  }

  const std::size_t nets = attr.net_name.size();
  std::vector<std::uint64_t> net_ops(nets, 0);

  // Backward dataflow scan. An op storing into a net's field charges
  // itself to that (level, net). A scratch op charges the key of the ops
  // that read the value it writes: owner[w] holds, for scratch word w, the
  // lowest key among the readers of its live value seen so far. Readers of
  // one value may come in any order, and the lowest key does not depend on
  // it, so the profile is the same under every order that keeps each
  // word's reads and writes in order (ir/schedule.h). A scratch value no
  // net store consumes lands in `unattributed`.
  constexpr std::uint64_t kUnowned = ~std::uint64_t{0};
  const auto is_net_word = [&](std::uint32_t w) {
    return w < attr.word_net.size() && attr.word_net[w] != ProfileAttribution::kNoNet;
  };
  std::vector<std::uint64_t> owner(
      std::max<std::size_t>(p.arena_words, attr.word_net.size()), kUnowned);
  for (auto it = p.ops.rbegin(); it != p.ops.rend(); ++it) {
    const Op& op = *it;
    std::uint64_t key = kUnowned;
    if (is_net_word(op.dst)) {
      const int level = attr.word_level[op.dst];
      if (level >= 0 && level <= attr.depth) {
        key = (static_cast<std::uint64_t>(level) << 32) | attr.word_net[op.dst];
      }
    } else if (op.dst < owner.size()) {
      key = owner[op.dst];
      owner[op.dst] = kUnowned;  // dead before this op writes it
    }
    const OpReads reads = arena_reads(op);
    for (int k = 0; k < reads.count; ++k) {
      const std::uint32_t w = reads.word[k];
      if (!is_net_word(w) && w < owner.size()) owner[w] = std::min(owner[w], key);
    }
    const ProgramPassCost c = op_pass_cost(op);
    prof.total += c;
    if (key == kUnowned) {
      prof.unattributed.cost += c;
    } else {
      prof.levels[static_cast<std::size_t>(key >> 32)].cost += c;
      net_ops[static_cast<std::uint32_t>(key)] += c.ops;
    }
  }

  const auto make_net = [&](std::uint32_t n) {
    ProfileNet pn;
    pn.net = n;
    pn.name = attr.net_name[n].empty() ? "net" + std::to_string(n)
                                       : attr.net_name[n];
    pn.level = attr.net_level[n];
    pn.arena_words = attr.net_arena_words[n];
    pn.ops = net_ops[n];
    return pn;
  };
  std::vector<std::uint32_t> order(nets);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t x, std::uint32_t y) {
    if (net_ops[x] != net_ops[y]) return net_ops[x] > net_ops[y];
    return x < y;
  });
  for (std::uint32_t n : order) {
    if (prof.top_by_ops.size() >= top_k || net_ops[n] == 0) break;
    prof.top_by_ops.push_back(make_net(n));
  }
  std::sort(order.begin(), order.end(), [&](std::uint32_t x, std::uint32_t y) {
    if (attr.net_arena_words[x] != attr.net_arena_words[y]) {
      return attr.net_arena_words[x] > attr.net_arena_words[y];
    }
    return x < y;
  });
  for (std::uint32_t n : order) {
    if (prof.top_by_arena_words.size() >= top_k || attr.net_arena_words[n] == 0) {
      break;
    }
    prof.top_by_arena_words.push_back(make_net(n));
  }
  return prof;
}

namespace {

JsonValue cost_json(const ProgramPassCost& c) {
  JsonValue v = JsonValue::make_object();
  v.set("ops", JsonValue::make_uint(c.ops));
  v.set("words_written", JsonValue::make_uint(c.words_written));
  v.set("words_read", JsonValue::make_uint(c.words_read));
  v.set("shift_ops", JsonValue::make_uint(c.shift_ops));
  v.set("load_ops", JsonValue::make_uint(c.load_ops));
  v.set("gate_ops", JsonValue::make_uint(c.gate_ops));
  return v;
}

JsonValue level_json(const ProfileLevel& l) {
  JsonValue v = JsonValue::make_object();
  v.set("level", l.level >= 0 ? JsonValue::make_uint(
                                    static_cast<std::uint64_t>(l.level))
                              : JsonValue::make_double(-1));
  v.set("cost", cost_json(l.cost));
  v.set("shift_sites_retained", JsonValue::make_uint(l.shift_sites_retained));
  v.set("shift_sites_eliminated",
        JsonValue::make_uint(l.shift_sites_eliminated));
  return v;
}

JsonValue net_json(const ProfileNet& n) {
  JsonValue v = JsonValue::make_object();
  v.set("net", JsonValue::make_uint(n.net));
  v.set("name", JsonValue::make_string(n.name));
  v.set("level", JsonValue::make_uint(static_cast<std::uint64_t>(n.level)));
  v.set("arena_words", JsonValue::make_uint(n.arena_words));
  v.set("ops", JsonValue::make_uint(n.ops));
  return v;
}

}  // namespace

std::string ProgramProfile::to_json() const {
  JsonValue v = JsonValue::make_object();
  v.set("total", cost_json(total));
  JsonValue& lv = v.set("levels", JsonValue::make_array());
  for (const ProfileLevel& l : levels) lv.array.push_back(level_json(l));
  v.set("unattributed", level_json(unattributed));
  JsonValue& by_ops = v.set("top_by_ops", JsonValue::make_array());
  for (const ProfileNet& n : top_by_ops) by_ops.array.push_back(net_json(n));
  JsonValue& by_words = v.set("top_by_arena_words", JsonValue::make_array());
  for (const ProfileNet& n : top_by_arena_words) {
    by_words.array.push_back(net_json(n));
  }
  return v.dump();
}

}  // namespace udsim
