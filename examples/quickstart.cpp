// Quickstart: build the paper's Fig. 2/4 network, compile it with both
// techniques, print the generated code, and compare a few waveforms against
// the event-driven baseline.
//
//      A ──┐
//          AND ── D ──┐
//      B ──┘          AND ── E
//      C ─────────────┘
#include <cstdio>
#include <iostream>

#include "core/simulator.h"
#include "eventsim/event_sim.h"
#include "ir/c_emitter.h"
#include "oracle/oracle.h"
#include "parsim/parallel_sim.h"
#include "pcsim/pcset_sim.h"

int main() {
  using namespace udsim;

  // ---- build the network ----------------------------------------------------
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

  // ---- PC-set method ---------------------------------------------------------
  const NetId monitored[] = {e};
  const PCSetCompiled pcc = compile_pcset(nl, monitored);
  std::cout << "=== PC-set method: generated code (cf. paper Fig. 4) ===\n";
  emit_c(std::cout, pcc.program, {}, pcset_var_names(nl, pcc));  // `/* D_0 */`

  // ---- parallel technique ----------------------------------------------------
  const ParallelCompiled par = compile_parallel(nl, {});
  std::cout << "\n=== parallel technique: generated code (cf. paper Fig. 6) ===\n";
  emit_c(std::cout, par.program, {}, parallel_var_names(nl, par));

  // ---- simulate a vector sequence and show the unit-delay histories ----------
  ParallelSim<> psim(nl);
  EventSim2 esim(nl);
  OracleSim oracle(nl);

  const Bit vectors[][3] = {{1, 1, 1}, {0, 1, 1}, {1, 1, 0}, {1, 1, 1}};
  std::cout << "\n=== unit-delay history of net E (times 0.." << oracle.depth()
            << ") ===\n";
  for (const auto& v : vectors) {
    psim.step(v);
    esim.step(v);
    const Waveform wf = oracle.step(v);
    std::printf("A=%d B=%d C=%d   E: ", v[0], v[1], v[2]);
    for (int t = 0; t <= oracle.depth(); ++t) {
      std::printf("%d", psim.value_at(e, t));
      if (wf.at(e, t) != psim.value_at(e, t)) {
        std::printf(" (mismatch vs oracle!)");
        return 1;
      }
    }
    std::printf("   (event-driven final: %d)\n", esim.value(e));
  }
  std::cout << "\nAll engines agree.\n";
  return 0;
}
