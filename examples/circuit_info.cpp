// circuit_info: print structural statistics and per-technique code metrics
// for the built-in ISCAS-85-like profiles, or for a .bench file given as an
// argument. Usage:
//   circuit_info              # all ten combinational profiles
//   circuit_info c432         # one profile
//   circuit_info --seq        # the sequential (ISCAS-89-like) profiles
//   circuit_info path.bench   # a real netlist from disk
#include <iostream>

#include "analysis/alignment.h"
#include "analysis/pcset.h"
#include "gen/iscas_profiles.h"
#include "gen/sequential.h"
#include "harness/table.h"
#include "netlist/bench_io.h"
#include "netlist/stats.h"
#include "parsim/parallel_sim.h"
#include "pcsim/pcset_sim.h"

namespace {

void report(const udsim::Netlist& nl, udsim::Table& table) {
  using namespace udsim;
  const CircuitStats st = circuit_stats(nl);
  const Levelization lv = levelize(nl);
  const PCSets pc = compute_pc_sets(nl, lv);
  const PCSetCompiled pcs = compile_pcset(nl);
  const ParallelCompiled par = compile_parallel(nl, {});
  table.add_row({nl.name(), std::to_string(st.primary_inputs),
                 std::to_string(st.primary_outputs), std::to_string(st.gates),
                 std::to_string(st.depth + 1), Table::num(st.avg_fanin, 2),
                 std::to_string(pc.total_net_pc_size()),
                 std::to_string(pc.max_net_pc_size()),
                 std::to_string(pcs.program.ops.size()),
                 std::to_string(par.program.ops.size()),
                 std::to_string(par.stats.field_words_max)});
}

}  // namespace

int main(int argc, char** argv) {
  using namespace udsim;
  Table table({"circuit", "PI", "PO", "gates", "levels", "fanin", "pc_total",
               "pc_max", "pcset_ops", "par_ops", "words"});
  try {
    if (argc > 1 && std::string(argv[1]) == "--seq") {
      Table seq_table({"circuit", "PI", "PO", "DFF", "gates", "core depth"});
      for (const Iscas89Profile& p : iscas89_profiles()) {
        const Netlist nl = make_iscas89_like(p.name);
        const BrokenCircuit bc = break_flip_flops(nl);
        seq_table.add_row({p.name, std::to_string(p.inputs),
                           std::to_string(p.outputs), std::to_string(p.registers),
                           std::to_string(p.gates),
                           std::to_string(circuit_stats(bc.comb).depth)});
      }
      seq_table.print(std::cout);
      return 0;
    }
    if (argc > 1) {
      const std::string arg = argv[1];
      Netlist nl = arg.find(".bench") != std::string::npos
                       ? read_bench_file(arg)
                       : make_iscas85_like(arg);
      lower_wired_nets(nl);
      report(nl, table);
    } else {
      for (const IscasProfile& p : iscas85_profiles()) {
        const Netlist nl = make_iscas85_like(p.name);
        report(nl, table);
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  table.print(std::cout);
  return 0;
}
