// build: cold turnaround. Each job parses `.bench` text, builds an engine
// with the default fallback policy (validator on) and runs a first batch of
// 64 vectors. Loads parse, analysis, emission and validation; barely
// touches the executor. The traced run also times the native backend's
// cold builds (native.cpp).
#include <deque>
#include <memory>
#include <sstream>

#include "analysis/alignment.h"
#include "analysis/levelize.h"
#include "analysis/pcset.h"
#include "analysis/trimming.h"
#include "common.h"
#include "gen/arithmetic.h"
#include "gen/random_dag.h"
#include "ir/program.h"
#include "netlist/bench_io.h"
#include "resilience/program_validator.h"

namespace pb {

namespace {

using udsim::EngineKind;

constexpr unsigned kThreads = 2;
constexpr int kSetupReps = 5;
constexpr std::size_t kFirstBatch = 64;
constexpr std::size_t kOracleRows = 8;

struct Circuit {
  std::string label;
  udsim::Netlist generated;  ///< the oracle's copy
  std::string text;          ///< what each job parses
  std::vector<Bit> vectors;
  std::unique_ptr<OracleRows> oracle;
  std::vector<double> job_s;  ///< untraced job times
  // Traced phase times, one entry per traced job.
  std::map<std::string, std::vector<double>> phase_s;
  std::size_t compile_ops = 0;
};

std::deque<Circuit> make_circuits(const Args& a) {
  std::deque<Circuit> cs;
  const int mult_bits = a.tiny ? 12 : 64;
  udsim::RandomDagParams dag;
  dag.name = "dag";
  dag.inputs = 256;
  dag.outputs = 128;
  dag.gates = a.tiny ? 2000 : 40000;
  dag.depth = a.tiny ? 40 : 120;
  dag.seed = kCircuitSeed;
  std::vector<udsim::Netlist> nls;
  nls.push_back(udsim::array_multiplier(mult_bits, mult_bits, "mult"));
  nls.push_back(udsim::random_dag(dag));
  for (udsim::Netlist& nl : nls) {
    Circuit& c = cs.emplace_back();
    c.label = nl.name();
    c.generated = std::move(nl);
    std::ostringstream os;
    udsim::write_bench(os, c.generated);
    c.text = os.str();
    c.vectors = random_vectors(c.generated.primary_inputs().size(), kFirstBatch,
                               a.seed * 16 + cs.size());
  }
  return cs;
}

/// `valid`: the program passed the validator (the traced job runs it
/// itself; the untraced job's policy rejects an invalid program).
bool check(Report& rep, const Circuit& c, const udsim::Simulator& sim,
           udsim::BatchResult& r, bool valid = true) {
  rep.maybe_corrupt(r);
  const bool ok = valid && sim.kind() == EngineKind::ParallelCombined &&
                  r.vectors == kFirstBatch && c.oracle->mismatches(r) == 0;
  rep.op(ok, "build " + c.label + " on " +
                 std::string(udsim::engine_name(sim.kind())));
  return ok;
}

/// One cold job as a user runs it: parse, default policy, first batch.
double untraced_job(Report& rep, const Circuit& c) {
  const double t0 = now_s();
  std::istringstream in(c.text);
  const udsim::Netlist nl = udsim::read_bench(in, c.label);
  udsim::Diagnostics diag;
  const auto sim = udsim::make_simulator_with_fallback(nl, udsim::SimPolicy{}, &diag);
  udsim::BatchResult r = sim->run_batch(c.vectors, kThreads);
  const double t = now_s() - t0;
  check(rep, c, *sim, r);
  return t;
}

/// The same job with a span around each layer call: validation runs as the
/// benchmark's own call of validate_program (what the default policy does
/// inside make_simulator_with_fallback). The analysis phases are then timed
/// on their own, outside the job, through the analysis layer's functions.
double traced_job(Report& rep, Circuit& c) {
  Tracer& tr = rep.tracer();
  auto& ph = c.phase_s;
  Scope job(tr, "build.job." + c.label);
  udsim::Netlist nl;
  {
    Scope s(tr, "netlist.read_bench." + c.label);
    std::istringstream in(c.text);
    nl = udsim::read_bench(in, c.label);
    ph["netlist.parse_s"].push_back(s.close());
  }
  udsim::Diagnostics diag;
  std::unique_ptr<udsim::Simulator> sim;
  {
    Scope s(tr, "compile.make_simulator." + c.label);
    udsim::SimPolicy policy;
    policy.validate = false;
    sim = udsim::make_simulator_with_fallback(nl, policy, &diag);
    ph["compile.engine_s"].push_back(s.close());
  }
  bool valid = false;
  {
    Scope s(tr, "resilience.validate_program." + c.label);
    const std::vector<udsim::ArenaProbe> probes = sim->output_probes();
    valid = udsim::validate_program(*sim->compiled_program(),
                                    udsim::ValidateOptions{.probes = probes}, diag);
    ph["resilience.validate_s"].push_back(s.close());
  }
  udsim::BatchResult r;
  {
    Scope s(tr, "build.first_batch." + c.label);
    r = sim->run_batch(c.vectors, kThreads);
    ph["build.first_batch_s"].push_back(s.close());
  }
  const double t = job.close();
  check(rep, c, *sim, r, valid);
  c.compile_ops = sim->compiled_program()->ops.size();

  Scope probe(tr, "analysis." + c.label);
  udsim::Levelization lv;
  {
    Scope s(tr, "analysis.levelize." + c.label);
    lv = udsim::levelize(nl);
    ph["analysis.levelize_s"].push_back(s.close());
  }
  udsim::PCSets pc;
  {
    Scope s(tr, "analysis.compute_pc_sets." + c.label);
    pc = udsim::compute_pc_sets(nl, lv);
    ph["analysis.pcset_s"].push_back(s.close());
  }
  udsim::AlignmentPlan plan;
  {
    Scope s(tr, "analysis.align_path_tracing." + c.label);
    plan = udsim::align_path_tracing(nl, lv);
    udsim::check_alignment_plan(nl, lv, plan);
    ph["analysis.align_s"].push_back(s.close());
  }
  {
    Scope s(tr, "analysis.compute_trim_plan." + c.label);
    const std::vector<int> widths = udsim::field_widths(nl, lv, plan, false);
    const udsim::TrimPlan trim =
        udsim::compute_trim_plan(nl, lv, pc, plan, widths, 32);
    ph["analysis.trim_s"].push_back(s.close());
  }
  return t;
}

}  // namespace

void run_build(Report& rep) {
  const Args& a = rep.args();
  std::vector<double> setup_times;
  std::deque<Circuit> cs;
  for (int i = 0; i < kSetupReps; ++i) {
    cs.clear();
    const double t0 = now_s();
    cs = make_circuits(a);
    setup_times.push_back(now_s() - t0);
  }
  for (std::size_t i = 0; i < cs.size(); ++i) {
    cs[i].oracle = std::make_unique<OracleRows>(
        cs[i].generated, cs[i].vectors,
        sample_rows(kFirstBatch, kOracleRows, a.seed + i));
  }

  const double start = now_s();
  const double untraced_end = start + a.seconds * (a.trace ? 0.4 : 1.0);
  do {
    for (Circuit& c : cs) c.job_s.push_back(untraced_job(rep, c));
  } while (now_s() < untraced_end);

  if (!a.trace) {
    std::vector<double> vps, ms;
    for (const Circuit& c : cs) {
      const double t = job_time(c.job_s);
      vps.push_back(static_cast<double>(kFirstBatch) / t);
      ms.push_back(t * 1e3);
    }
    rep.set("setup_s", median(setup_times));
    rep.set("peak_rss_mb", peak_rss_mb());
    rep.set("vps", geomean(vps));
    rep.set("op_ms", geomean(ms));
    return;
  }

  std::vector<double> overhead;
  std::map<Circuit*, std::vector<double>> traced;
  rep.tracer().set_enabled(true);
  const double end = start + a.seconds * 0.7;
  do {
    for (Circuit& c : cs) traced[&c].push_back(traced_job(rep, c));
  } while (now_s() < end);
  trace_native(rep, a.seconds * 0.3);
  for (Circuit& c : cs) {
    for (const auto& [name, v] : c.phase_s) rep.set(name + "." + c.label, median(v));
    rep.set("compile.ops.parallel." + c.label, static_cast<double>(c.compile_ops));
    overhead.push_back(median(traced[&c]) / median(c.job_s));
  }
  rep.set("trace.overhead_pct", (geomean(overhead) - 1.0) * 100.0);
}

}  // namespace pb
