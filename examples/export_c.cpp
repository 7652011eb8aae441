// export_c: generate the compiled-simulation C source for a circuit, the
// artifact the paper's code generators produce. The output is a complete
// translation unit (arena + init + step function) that can be compiled with
// any C compiler; bench/ablation_emitted_c does exactly that and checks it
// against the in-process executor.
//
// Usage: export_c [circuit] [engine] > sim.c
//   circuit: ISCAS-85 profile name or path to a .bench file (default c432)
//   engine:  lcc | pcset | parallel | parallel-trim | parallel-pt |
//            parallel-cb | parallel-combined          (default parallel)
#include <cstdio>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "gen/iscas_profiles.h"
#include "ir/c_emitter.h"
#include "lcc/lcc.h"
#include "netlist/bench_io.h"
#include "parsim/parallel_sim.h"
#include "pcsim/pcset_sim.h"

int main(int argc, char** argv) {
  using namespace udsim;
  const std::string which = argc > 1 ? argv[1] : "c432";
  const std::string engine = argc > 2 ? argv[2] : "parallel";

  try {
    Netlist nl = which.find(".bench") != std::string::npos
                     ? read_bench_file(which)
                     : make_iscas85_like(which);
    lower_wired_nets(nl);

    Program program;
    std::vector<std::string> names;  // `/* net */` comments
    if (engine == "lcc") {
      LccCompiled c = compile_lcc(nl);
      names = lcc_var_names(nl, c);
      program = std::move(c.program);
    } else if (engine == "pcset") {
      PCSetCompiled c = compile_pcset(nl);
      names = pcset_var_names(nl, c);
      program = std::move(c.program);
    } else {
      ParallelOptions o;
      if (engine == "parallel-trim") {
        o.trimming = true;
      } else if (engine == "parallel-pt") {
        o.shift_elim = ShiftElim::PathTracing;
      } else if (engine == "parallel-cb") {
        o.shift_elim = ShiftElim::CycleBreaking;
      } else if (engine == "parallel-combined") {
        o.trimming = true;
        o.shift_elim = ShiftElim::PathTracing;
      } else if (engine != "parallel") {
        std::fprintf(stderr, "unknown engine '%s'\n", engine.c_str());
        return 2;
      }
      ParallelCompiled c = compile_parallel(nl, o);
      names = parallel_var_names(nl, c);
      program = std::move(c.program);
    }
    std::fprintf(stderr,
                 "circuit %s, engine %s: %zu ops, %u arena words, %zu inputs\n",
                 nl.name().c_str(), engine.c_str(), program.ops.size(),
                 program.arena_words, nl.primary_inputs().size());
    emit_c(std::cout, program, {}, names);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
