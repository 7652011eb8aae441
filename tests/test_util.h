// Shared fixtures: the paper's example networks and waveform comparators.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/batch_runner.h"
#include "core/waveform.h"
#include "ir/program.h"
#include "netlist/netlist.h"

namespace udsim::test {

/// [begin, end) of shard `s` when `runner` splits `count` vectors: shards
/// are runs of whole lane groups (lanes_per_pass() vectors each), spread
/// as evenly as the group count allows over shard_count(count) shards.
inline std::pair<std::size_t, std::size_t> shard_range(const BatchRunner& runner,
                                                       std::size_t count,
                                                       std::size_t s) {
  const std::size_t lanes = runner.lanes_per_pass();
  const std::size_t groups = (count + lanes - 1) / lanes;
  const std::size_t shards = runner.shard_count(count);
  const std::size_t quot = groups / shards;
  const std::size_t rem = groups % shards;
  const std::size_t begin = (s * quot + std::min(s, rem)) * lanes;
  return {begin, std::min(count, begin + (quot + (s < rem ? 1 : 0)) * lanes)};
}

/// Paper Figs. 2/4/10: A,B -> AND -> D; D,C -> AND -> E.
inline Netlist fig4_network() {
  Netlist nl("fig4");
  const NetId a = nl.add_net("A");
  const NetId b = nl.add_net("B");
  const NetId c = nl.add_net("C");
  const NetId d = nl.add_net("D");
  const NetId e = nl.add_net("E");
  nl.mark_primary_input(a);
  nl.mark_primary_input(b);
  nl.mark_primary_input(c);
  nl.add_gate(GateType::And, {a, b}, d);
  nl.add_gate(GateType::And, {d, c}, e);
  nl.mark_primary_output(e);
  return nl;
}

/// Paper Fig. 11: A -> NOT -> B; A,B -> AND -> C. Requires one shift.
inline Netlist fig11_network() {
  Netlist nl("fig11");
  const NetId a = nl.add_net("A");
  const NetId b = nl.add_net("B");
  const NetId c = nl.add_net("C");
  nl.mark_primary_input(a);
  nl.add_gate(GateType::Not, {a}, b);
  nl.add_gate(GateType::And, {a, b}, c);
  nl.mark_primary_output(c);
  return nl;
}

/// Reconvergent fanout along paths of unequal length (the situation behind
/// paper Figs. 11-12): A reaches the output gate through a `long_len`-gate
/// chain and through a single inverter; the resulting undirected cycle has
/// weight long_len - 1, so at least one shift must be retained.
inline Netlist unbalanced_reconvergence(int long_len = 3) {
  Netlist nl("unbal");
  const NetId a = nl.add_net("A");
  nl.mark_primary_input(a);
  NetId cur = a;
  for (int i = 0; i < long_len; ++i) {
    const NetId nxt = nl.add_net("N" + std::to_string(i));
    nl.add_gate(GateType::Buf, {cur}, nxt);
    cur = nxt;
  }
  const NetId m = nl.add_net("M");
  nl.add_gate(GateType::Not, {a}, m);
  const NetId out = nl.add_net("OUT");
  nl.add_gate(GateType::And, {cur, m}, out);
  nl.mark_primary_output(out);
  return nl;
}

/// XOR chain: every net glitches a lot; good for hazard tests.
inline Netlist xor_chain(int len) {
  Netlist nl("xchain");
  const NetId a = nl.add_net("A");
  const NetId b = nl.add_net("B");
  nl.mark_primary_input(a);
  nl.mark_primary_input(b);
  NetId cur = a;
  for (int i = 0; i < len; ++i) {
    const NetId nxt = nl.add_net("X" + std::to_string(i));
    nl.add_gate(GateType::Xor, {cur, b}, nxt);
    cur = nxt;
  }
  nl.mark_primary_output(cur);
  return nl;
}

/// Wired-AND example: two drivers onto one net.
inline Netlist wired_network(WiredKind kind = WiredKind::And) {
  Netlist nl("wired");
  const NetId a = nl.add_net("A");
  const NetId b = nl.add_net("B");
  const NetId c = nl.add_net("C");
  const NetId w = nl.add_net("W");
  const NetId o = nl.add_net("O");
  nl.mark_primary_input(a);
  nl.mark_primary_input(b);
  nl.mark_primary_input(c);
  nl.set_wired(w, kind);
  nl.add_gate(GateType::And, {a, b}, w);
  nl.add_gate(GateType::Not, {c}, w);
  nl.add_gate(GateType::Or, {w, a}, o);
  nl.mark_primary_output(o);
  return nl;
}

/// A random reordering of `p.ops` that keeps every read-after-write,
/// write-after-read and write-after-write pair on an arena word in order
/// (input reads are not hazards): a topological order of the hazard graph
/// that picks a uniformly random ready op at each step. Any such order
/// leaves the arena exactly as `p` does, pass after pass.
inline Program dependency_preserving_shuffle(const Program& p, std::uint64_t seed) {
  const std::size_t n = p.ops.size();
  std::uint32_t words = p.arena_words;
  for (const Op& op : p.ops) words = std::max(words, op.dst + 1);
  std::vector<std::vector<std::uint32_t>> succ(n);
  std::vector<std::uint32_t> indeg(n, 0);
  std::vector<std::int64_t> writer(words, -1);
  std::vector<std::vector<std::uint32_t>> readers(words);
  const auto edge = [&](std::int64_t from, std::uint32_t to) {
    if (from < 0) return;
    succ[static_cast<std::size_t>(from)].push_back(to);
    ++indeg[to];
  };
  for (std::uint32_t i = 0; i < n; ++i) {
    const Op& op = p.ops[i];
    const OpReads r = arena_reads(op);
    for (int k = 0; k < r.count; ++k) edge(writer[r.word[k]], i);
    edge(writer[op.dst], i);
    for (const std::uint32_t rd : readers[op.dst]) edge(rd, i);
    writer[op.dst] = i;
    readers[op.dst].clear();
    for (int k = 0; k < r.count; ++k) {
      if (r.word[k] != op.dst) readers[r.word[k]].push_back(i);
    }
  }
  std::mt19937_64 rng(seed);
  std::vector<std::uint32_t> ready;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (indeg[i] == 0) ready.push_back(i);
  }
  Program out = p;
  out.ops.clear();
  while (!ready.empty()) {
    const std::size_t pick = rng() % ready.size();
    const std::uint32_t i = ready[pick];
    ready[pick] = ready.back();
    ready.pop_back();
    out.ops.push_back(p.ops[i]);
    for (const std::uint32_t j : succ[i]) {
      if (--indeg[j] == 0) ready.push_back(j);
    }
  }
  return out;
}

/// Sets (or clears, with nullptr) one environment variable for the scope
/// and restores the previous state on exit, so tests cannot leak a forced
/// width into each other.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      had_old_ = true;
      old_ = old;
    }
    if (value) {
      ::setenv(name, value, /*overwrite=*/1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

}  // namespace udsim::test
