#include "netlist/netlist.h"

#include <algorithm>

namespace udsim {

NetId Netlist::add_net(std::string name) {
  if (net_by_name_.contains(name)) {
    throw NetlistError("duplicate net name: " + name);
  }
  const NetId id{static_cast<std::uint32_t>(nets_.size())};
  net_by_name_.emplace(name, id.value);
  Net n;
  n.name = std::move(name);
  nets_.push_back(std::move(n));
  return id;
}

NetId Netlist::get_or_add_net(const std::string& name) {
  if (auto it = net_by_name_.find(name); it != net_by_name_.end()) {
    return NetId{it->second};
  }
  return add_net(name);
}

std::optional<NetId> Netlist::find_net(const std::string& name) const {
  if (auto it = net_by_name_.find(name); it != net_by_name_.end()) {
    return NetId{it->second};
  }
  return std::nullopt;
}

GateId Netlist::add_gate(GateType type, std::vector<NetId> inputs, NetId output) {
  if (!output.valid() || output.value >= nets_.size()) {
    throw NetlistError("add_gate: invalid output net");
  }
  for (NetId in : inputs) {
    if (!in.valid() || in.value >= nets_.size()) {
      throw NetlistError("add_gate: invalid input net");
    }
  }
  Net& out = nets_[output.value];
  if (!out.drivers.empty() && out.wired == WiredKind::None) {
    throw NetlistError("net '" + out.name +
                       "' already driven; call set_wired first for wired connections");
  }
  if (out.is_primary_input) {
    throw NetlistError("net '" + out.name + "' is a primary input and cannot be driven");
  }
  const GateId id{static_cast<std::uint32_t>(gates_.size())};
  for (NetId in : inputs) {
    nets_[in.value].fanout.push_back(id);
  }
  out.drivers.push_back(id);
  Gate g;
  g.type = type;
  g.inputs = std::move(inputs);
  g.output = output;
  gates_.push_back(std::move(g));
  gate_delays_.push_back(gate_delay(type));
  return id;
}

void Netlist::set_delay(GateId g, int delay) {
  const GateType t = gates_.at(g.value).type;
  const bool wired = t == GateType::WiredAnd || t == GateType::WiredOr;
  if (wired ? delay != 0 : delay < 1) {
    throw NetlistError(wired ? "wired resolvers are zero-delay"
                             : "real gates need a delay of at least 1");
  }
  gate_delays_.at(g.value) = delay;
}

int Netlist::max_delay() const noexcept {
  int d = 0;
  for (int x : gate_delays_) d = std::max(d, x);
  return d;
}

bool Netlist::is_unit_delay() const noexcept {
  for (std::size_t i = 0; i < gates_.size(); ++i) {
    if (gate_delay(gates_[i].type) != 0 && gate_delays_[i] != 1) return false;
  }
  return true;
}

void Netlist::add_gate_input(GateId gate, NetId net) {
  Gate& g = gates_.at(gate.value);
  if (is_unary(g.type) || is_constant(g.type)) {
    throw NetlistError("add_gate_input: gate type takes a fixed pin count");
  }
  if (net == g.output) {
    throw NetlistError("add_gate_input: self-loop");
  }
  g.inputs.push_back(net);
  nets_.at(net.value).fanout.push_back(gate);
}

void Netlist::set_wired(NetId net, WiredKind kind) {
  nets_.at(net.value).wired = kind;
}

void Netlist::mark_primary_input(NetId net) {
  Net& n = nets_.at(net.value);
  if (!n.drivers.empty()) {
    throw NetlistError("net '" + n.name + "' has drivers and cannot be a primary input");
  }
  if (!n.is_primary_input) {
    n.is_primary_input = true;
    primary_inputs_.push_back(net);
  }
}

void Netlist::mark_primary_output(NetId net) {
  Net& n = nets_.at(net.value);
  if (!n.is_primary_output) {
    n.is_primary_output = true;
    primary_outputs_.push_back(net);
  }
}

std::size_t Netlist::real_gate_count() const noexcept {
  std::size_t n = 0;
  for (const Gate& g : gates_) {
    if (gate_delay(g.type) != 0) ++n;
  }
  return n;
}

namespace {

[[nodiscard]] bool pin_count_ok(GateType t, std::size_t n) noexcept {
  if (is_constant(t)) return n == 0;
  if (is_unary(t)) return n == 1;
  return n >= 1;  // n-ary gates; a 1-input AND degenerates to a buffer
}

}  // namespace

void Netlist::validate() const {
  validate_structure();
  if (!is_acyclic()) {
    throw NetlistError("netlist '" + name_ + "' contains a combinational cycle: " +
                       describe_cycle());
  }
}

std::size_t Netlist::validate(Diagnostics& diag) const {
  const std::size_t errors_before = diag.count(DiagSeverity::Error);
  for (std::size_t i = 0; i < gates_.size(); ++i) {
    const Gate& g = gates_[i];
    const std::string subject = "gate " + std::to_string(i) + " -> " +
                                nets_[g.output.value].name;
    if (g.type == GateType::Dff) {
      diag.report(DiagCode::IllegalGate, DiagSeverity::Error, subject,
                  "Dff present; break flip-flops before simulation");
    }
    if (!pin_count_ok(g.type, g.inputs.size())) {
      diag.report(DiagCode::IllegalGate, DiagSeverity::Error, subject,
                  std::string(gate_type_name(g.type)) + " has illegal pin count " +
                      std::to_string(g.inputs.size()));
    }
    const Net& out = nets_[g.output.value];
    if (out.fanout.empty() && !out.is_primary_output) {
      diag.report(DiagCode::FanoutFreeGate, DiagSeverity::Warning, subject,
                  "output feeds no gate and is not a primary output (dead logic)");
    }
  }
  for (std::size_t i = 0; i < nets_.size(); ++i) {
    const Net& n = nets_[i];
    if (n.is_primary_input && !n.drivers.empty()) {
      diag.report(DiagCode::PrimaryInputDriven, DiagSeverity::Error, n.name,
                  "primary input has " + std::to_string(n.drivers.size()) +
                      " driver(s)");
    }
    if (!n.is_primary_input && n.drivers.empty()) {
      diag.report(DiagCode::UndrivenNet, DiagSeverity::Error, n.name,
                  "undriven and not a primary input");
    }
    if (n.drivers.size() > 1 && n.wired == WiredKind::None) {
      diag.report(DiagCode::MultiDriverNet, DiagSeverity::Error, n.name,
                  std::to_string(n.drivers.size()) +
                      " drivers but no wired resolution kind");
    }
  }
  if (!is_acyclic()) {
    diag.report(DiagCode::CombinationalCycle, DiagSeverity::Error, name_,
                "combinational cycle: " + describe_cycle());
  }
  return diag.count(DiagSeverity::Error) - errors_before;
}

void Netlist::validate_structure() const {
  for (std::size_t i = 0; i < gates_.size(); ++i) {
    const Gate& g = gates_[i];
    if (g.type == GateType::Dff) {
      throw NetlistError("gate " + std::to_string(i) +
                         ": Dff present; break flip-flops before simulation");
    }
    if (!pin_count_ok(g.type, g.inputs.size())) {
      throw NetlistError("gate " + std::to_string(i) + " (" +
                         std::string(gate_type_name(g.type)) + "): illegal pin count " +
                         std::to_string(g.inputs.size()));
    }
  }
  for (std::size_t i = 0; i < nets_.size(); ++i) {
    const Net& n = nets_[i];
    if (n.is_primary_input && !n.drivers.empty()) {
      throw NetlistError("primary input '" + n.name + "' has a driver");
    }
    if (!n.is_primary_input && n.drivers.empty()) {
      throw NetlistError("net '" + n.name + "' is undriven and not a primary input");
    }
    if (n.drivers.size() > 1 && n.wired == WiredKind::None) {
      throw NetlistError("net '" + n.name + "' has multiple drivers but is not wired");
    }
  }
}

bool Netlist::is_acyclic() const {
  // Kahn's algorithm over gates: a gate is ready when all its input nets are
  // resolved; a net is resolved when all its drivers have fired.
  std::vector<std::uint32_t> gate_pending(gates_.size());
  std::vector<std::uint32_t> net_pending(nets_.size());
  std::vector<std::uint32_t> ready;
  ready.reserve(gates_.size());
  for (std::size_t i = 0; i < nets_.size(); ++i) {
    net_pending[i] = static_cast<std::uint32_t>(nets_[i].drivers.size());
  }
  for (std::size_t i = 0; i < gates_.size(); ++i) {
    std::uint32_t unresolved = 0;
    for (NetId in : gates_[i].inputs) unresolved += net_pending[in.value] != 0;
    gate_pending[i] = unresolved;
    if (unresolved == 0) ready.push_back(static_cast<std::uint32_t>(i));
  }
  std::size_t fired = 0;
  while (!ready.empty()) {
    const std::uint32_t gi = ready.back();
    ready.pop_back();
    ++fired;
    const NetId out = gates_[gi].output;
    if (--net_pending[out.value] == 0) {
      // `fanout` holds one entry per input *pin*, and every pin on a driven
      // net was counted unresolved above, so one decrement per entry is
      // exact even when a gate lists this net on several pins.
      for (GateId waiter : nets_[out.value].fanout) {
        if (--gate_pending[waiter.value] == 0) ready.push_back(waiter.value);
      }
    }
  }
  return fired == gates_.size();
}

std::vector<NetId> Netlist::find_cycle() const {
  // Iterative DFS over nets; the edge relation is net -> fanout gate ->
  // gate's output net (Dff edges included, matching is_acyclic()). A gray
  // successor closes a cycle, which is read back off the DFS stack.
  enum : std::uint8_t { White, Gray, Black };
  std::vector<std::uint8_t> color(nets_.size(), White);
  struct Frame {
    std::uint32_t net;
    std::size_t next_fanout;
  };
  std::vector<Frame> stack;
  for (std::uint32_t root = 0; root < nets_.size(); ++root) {
    if (color[root] != White) continue;
    stack.push_back({root, 0});
    color[root] = Gray;
    while (!stack.empty()) {
      Frame& f = stack.back();
      const Net& n = nets_[f.net];
      if (f.next_fanout >= n.fanout.size()) {
        color[f.net] = Black;
        stack.pop_back();
        continue;
      }
      const GateId g = n.fanout[f.next_fanout++];
      const std::uint32_t succ = gates_[g.value].output.value;
      if (color[succ] == Gray) {
        std::vector<NetId> cycle;
        auto it = stack.begin();
        while (it != stack.end() && it->net != succ) ++it;
        for (; it != stack.end(); ++it) cycle.push_back(NetId{it->net});
        return cycle;
      }
      if (color[succ] == White) {
        color[succ] = Gray;
        stack.push_back({succ, 0});
      }
    }
  }
  return {};
}

std::string Netlist::describe_cycle(std::size_t max_nets) const {
  const std::vector<NetId> cycle = find_cycle();
  if (cycle.empty()) return {};
  std::string s;
  const std::size_t shown = std::min(cycle.size(), max_nets);
  for (std::size_t i = 0; i < shown; ++i) {
    if (i) s += " -> ";
    s += nets_[cycle[i].value].name;
  }
  if (shown < cycle.size()) {
    s += " -> ... (" + std::to_string(cycle.size() - shown) + " more)";
  }
  s += " -> " + nets_[cycle.front().value].name;
  return s;
}

std::size_t lower_wired_nets(Netlist& nl) {
  // Collect the multi-driver nets first; we mutate the netlist below.
  struct Item {
    NetId net;
    WiredKind kind;
    std::vector<GateId> drivers;
  };
  std::vector<Item> items;
  for (std::uint32_t i = 0; i < nl.net_count(); ++i) {
    const Net& n = nl.net(NetId{i});
    if (n.drivers.size() > 1) {
      if (n.wired == WiredKind::None) {
        throw NetlistError("net '" + n.name + "' multiply driven but not wired");
      }
      items.push_back({NetId{i}, n.wired, n.drivers});
    }
  }
  if (items.empty()) return 0;

  // Rebuild the netlist: same nets plus one split net per (wired net, driver).
  Netlist out(nl.name());
  for (const Net& n : nl.nets()) {
    out.add_net(n.name);
  }
  std::unordered_map<std::uint64_t, NetId> split;  // (net<<32)|driver -> new net
  for (const Item& it : items) {
    for (std::size_t k = 0; k < it.drivers.size(); ++k) {
      const std::string nm =
          nl.net(it.net).name + "$w" + std::to_string(k);
      split.emplace((static_cast<std::uint64_t>(it.net.value) << 32) |
                        it.drivers[k].value,
                    out.add_net(nm));
    }
  }
  for (std::uint32_t gi = 0; gi < nl.gate_count(); ++gi) {
    const Gate& g = nl.gate(GateId{gi});
    NetId target = g.output;
    const auto key = (static_cast<std::uint64_t>(g.output.value) << 32) | gi;
    if (auto sit = split.find(key); sit != split.end()) {
      target = sit->second;
    }
    const GateId ng = out.add_gate(g.type, g.inputs, target);
    out.set_delay(ng, nl.delay(GateId{gi}));
  }
  for (const Item& it : items) {
    std::vector<NetId> ins;
    ins.reserve(it.drivers.size());
    for (GateId d : it.drivers) {
      ins.push_back(split.at((static_cast<std::uint64_t>(it.net.value) << 32) |
                             d.value));
    }
    out.add_gate(it.kind == WiredKind::And ? GateType::WiredAnd : GateType::WiredOr,
                 std::move(ins), it.net);
  }
  for (NetId pi : nl.primary_inputs()) out.mark_primary_input(pi);
  for (NetId po : nl.primary_outputs()) out.mark_primary_output(po);
  nl = std::move(out);
  return items.size();
}

}  // namespace udsim
