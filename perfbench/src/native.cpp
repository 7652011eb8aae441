// Native layer of the build workload's traced run: a cold native build
// per job (emit C, cc, dlopen; no object cache), then a long single-threaded
// stream on the loaded module, plus the native layer's own steps timed
// through its public functions.
//
// This is per-layer evidence only. As a workload of its own, native's
// end-to-end figures spread by 13-24% (quartile distance over median) from
// run to run on the reference host, whose memory-heavy work (cc above all:
// identical `cc -O2` runs of the c880 C file take 0.5-0.9 s back to back)
// drifts with co-tenant load; no end-to-end bound could hold that.
#include <deque>
#include <iostream>
#include <memory>
#include <sstream>

#include "common.h"
#include "gen/iscas_profiles.h"
#include "ir/c_emitter.h"
#include "ir/program.h"
#include "native/native_backend.h"
#include "parsim/parallel_sim.h"

namespace pb {

namespace {

using udsim::EngineKind;

constexpr std::size_t kOracleRows = 64;

struct Circuit {
  std::string label;
  udsim::Netlist nl;
  std::vector<Bit> block;  ///< one stream call's vectors
  std::unique_ptr<OracleRows> oracle;
  std::map<std::string, std::vector<double>> layer;  ///< one entry per job
  double c_kb = 0;
};

udsim::NativeOptions native_options() {
  udsim::NativeOptions o;
  o.use_cache = false;  // every job pays emit + cc + dlopen
  return o;
}

/// Each job streams 2^20 vectors (0.3-1.4 s at 0.7-3M vectors/s) in 16
/// calls. The pass time of one call moves by up to 2x with where its buffers
/// land (the same module, call to call), so a job's stream pools 16 calls.
std::size_t block_rows(const Args& a) { return a.tiny ? 4096 : 65536; }
std::size_t stream_calls(const Args& a) { return a.tiny ? 1 : 16; }

std::deque<Circuit> make_circuits(const Args& a) {
  std::deque<Circuit> cs;
  std::uint64_t i = 0;
  for (const char* label : {"c880", "c1908"}) {
    Circuit& c = cs.emplace_back();
    c.label = label;
    c.nl = udsim::make_iscas85_like(label, kCircuitSeed);
    c.block = random_vectors(c.nl.primary_inputs().size(), block_rows(a),
                             a.seed * 16 + 8 + i);
    ++i;
  }
  return cs;
}

struct JobTimes {
  bool native = false;  ///< the native engine was built (no fallback)
  double build = 0;
  double stream = 0;    ///< all stream calls
};

/// Build through the native policy, then stream; times come from the spans.
/// Every check runs outside them.
JobTimes job(Report& rep, Circuit& c) {
  Tracer& tr = rep.tracer();
  JobTimes t;
  udsim::Diagnostics diag;
  Scope build(tr, "native.make_simulator." + c.label);
  const auto sim = udsim::make_simulator_with_fallback(
      c.nl, udsim::native_sim_policy(native_options()), &diag);
  t.build = build.close();
  t.native = sim->kind() == EngineKind::Native;
  bool ok = t.native;
  if (!ok) {
    std::cerr << "udbench: native build fell back to "
              << udsim::engine_name(sim->kind()) << "\n";
  }
  for (std::size_t k = 0; k < stream_calls(rep.args()); ++k) {
    Scope run(tr, "native.run_batch." + c.label);
    udsim::BatchResult r = sim->run_batch(c.block, 1);
    t.stream += run.close();
    rep.maybe_corrupt(r);
    ok = ok && r.vectors * c.nl.primary_inputs().size() == c.block.size() &&
         c.oracle->mismatches(r) == 0;
  }
  rep.op(ok, "native " + c.label);
  return t;
}

/// The native layer's own steps, timed through its public functions on the
/// program the native engine compiles: C emission, then a module build
/// (emit + cc + dlopen, uncached).
void probe_layers(Report& rep, Circuit& c) {
  Tracer& tr = rep.tracer();
  Scope probe(tr, "native.probe." + c.label);
  udsim::ParallelOptions po;
  po.trimming = true;
  po.shift_elim = udsim::ShiftElim::PathTracing;
  po.word_bits = 32;
  udsim::ParallelCompiled compiled;
  {
    Scope s(tr, "compile.compile_parallel." + c.label);
    compiled = udsim::compile_parallel(c.nl, po);
  }
  double emit_s = 0;
  {
    Scope s(tr, "native.emit_c." + c.label);
    std::ostringstream os;
    // The options the native backend emits its C source with.
    const udsim::CEmitOptions eo{.function_name = "udsim_kernel",
                                 .arena_name = "a",
                                 .comments = false,
                                 .batch_entry = true};
    udsim::emit_c(os, compiled.program, eo);
    emit_s = s.close();
    c.c_kb = static_cast<double>(os.str().size()) / 1024.0;
  }
  double module_s = 0;
  {
    Scope s(tr, "native.NativeModule." + c.label);
    const udsim::NativeModule m(compiled.program, "parallel-combined",
                                native_options());
    module_s = s.close();
  }
  c.layer["native.emit_s"].push_back(emit_s);
  c.layer["native.module_s"].push_back(module_s);
  c.layer["native.cc_load_s"].push_back(module_s - emit_s);
}

}  // namespace

void trace_native(Report& rep, double seconds) {
  const Args& a = rep.args();
  std::deque<Circuit> cs = make_circuits(a);
  for (std::size_t i = 0; i < cs.size(); ++i) {
    cs[i].oracle = std::make_unique<OracleRows>(
        cs[i].nl, cs[i].block, sample_rows(block_rows(a), kOracleRows, a.seed + i));
  }
  const auto rows = static_cast<double>(block_rows(a));
  const double end = now_s() + seconds;
  do {
    for (Circuit& c : cs) {
      const JobTimes t = job(rep, c);
      c.layer["native.build_s"].push_back(t.build);
      c.layer["native.pass_us"].push_back(
          t.stream / (rows * static_cast<double>(stream_calls(a))) * 1e6);
      if (t.native) probe_layers(rep, c);  // a fallback is already a failure
    }
  } while (now_s() < end);
  for (Circuit& c : cs) {
    for (const auto& [name, v] : c.layer) rep.set(name + "." + c.label, median(v));
    rep.set("native.c_kb." + c.label, c.c_kb);
  }
}

}  // namespace pb
