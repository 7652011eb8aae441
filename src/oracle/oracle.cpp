#include "oracle/oracle.h"

#include <stdexcept>

namespace udsim {

OracleSim::OracleSim(const Netlist& nl) : nl_(nl) {
  lower_wired_nets(nl_);
  nl_.validate();
  lv_ = levelize(nl_, order_);
  state_.assign(nl_.net_count(), 0);
  reset(0);
}

void OracleSim::reset(Bit value) {
  for (Bit& b : state_) b = value & 1;
  // Constant nets always hold their constant.
  for (const Gate& g : nl_.gates()) {
    if (g.type == GateType::Const0) state_[g.output.value] = 0;
    if (g.type == GateType::Const1) state_[g.output.value] = 1;
  }
}

Waveform OracleSim::step(std::span<const Bit> pi_values) {
  if (pi_values.size() != nl_.primary_inputs().size()) {
    throw std::invalid_argument("OracleSim::step: wrong primary-input count");
  }
  Waveform wf(nl_.net_count(), lv_.depth);

  // Primary inputs take the new value at time 0 and hold it.
  for (std::size_t i = 0; i < pi_values.size(); ++i) {
    const NetId pi = nl_.primary_inputs()[i];
    for (int t = 0; t <= lv_.depth; ++t) wf.set(pi, t, pi_values[i] & 1);
  }
  // Net-at-a-time evaluation in topological order, generic over per-gate
  // delays: out(t) = f(inputs at t - delay); times below the delay hold the
  // previous vector's final value.
  std::vector<Bit> pins;
  for (GateId gid : order_) {
    const Gate& g = nl_.gate(gid);
    const int d = nl_.delay(gid);
    const NetId out = g.output;
    for (int t = 0; t <= lv_.depth; ++t) {
      Bit v;
      if (t < d) {
        v = state_[out.value];
      } else {
        pins.clear();
        for (NetId in : g.inputs) pins.push_back(wf.at(in, t - d));
        v = eval2(g.type, pins);
      }
      wf.set(out, t, v);
    }
  }
  for (std::uint32_t n = 0; n < nl_.net_count(); ++n) {
    state_[n] = wf.final_value(NetId{n});
  }
  return wf;
}

}  // namespace udsim
