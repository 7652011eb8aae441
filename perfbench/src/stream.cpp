// stream: long vector streams through Simulator::run_batch on engines built
// during set-up. Loads the executor and the batch sharding code; bypasses
// parse, analysis (done in set-up), the service and the native backend.
#include <deque>
#include <memory>

#include "common.h"
#include "gen/iscas_profiles.h"
#include "ir/program.h"

namespace pb {

namespace {

using udsim::EngineKind;

constexpr unsigned kThreads = 2;
constexpr int kSetupReps = 5;
constexpr std::size_t kOracleRows = 48;

struct Technique {
  const char* name;
  EngineKind kind;
};
constexpr Technique kTechniques[] = {
    {"parallel", EngineKind::ParallelCombined},
    {"pcset", EngineKind::PCSet},
    {"lcc", EngineKind::ZeroDelayLcc},
};

struct CircuitSpec {
  const char* label;
  /// Vectors per run for each technique, in kTechniques order: fixed so
  /// that each run takes >= 0.5 s at 2 threads on the reference host.
  std::size_t vectors[3];
};
constexpr CircuitSpec kCircuits[] = {
    {"c6288", {16384, 7168, 229376}},
    {"c7552", {18432, 6144, 24576}},
};

struct Circuit {
  std::string label;
  udsim::Netlist nl;
  std::vector<Bit> vectors;  ///< the longest row's stream; rows use a prefix
  std::unique_ptr<OracleRows> oracle;
  std::vector<Bit> agreed;   ///< longest output table seen so far
  std::size_t agreed_rows = 0;
};

struct Row {
  Circuit* circuit;
  std::size_t tech;
  std::size_t vectors;
  std::unique_ptr<udsim::Simulator> sim;
  std::vector<double> t2;      ///< untraced 2-thread run times
  std::vector<double> t2_traced;
  std::vector<double> t1_traced;
  std::uint64_t ops_per_vector = 0;
  double seam_ratio = 0;
};

struct Setup {
  std::deque<Circuit> circuits;  // deque: rows hold stable pointers
  std::vector<Row> rows;         // engines reference circuits: destroyed first

  void clear() {
    rows.clear();
    circuits.clear();
  }
};

Setup build_setup(const Args& a) {
  Setup s;
  const std::size_t divisor = a.tiny ? 256 : 1;
  for (std::size_t ci = 0; ci < std::size(kCircuits); ++ci) {
    const CircuitSpec& spec = kCircuits[ci];
    Circuit& c = s.circuits.emplace_back();
    c.label = spec.label;
    c.nl = udsim::make_iscas85_like(spec.label, kCircuitSeed);
    std::size_t longest = 0;
    for (std::size_t v : spec.vectors) longest = std::max(longest, v / divisor);
    c.vectors = random_vectors(c.nl.primary_inputs().size(), longest,
                               a.seed * 16 + 8 + ci);
  }
  for (std::size_t ci = 0; ci < std::size(kCircuits); ++ci) {
    for (std::size_t t = 0; t < std::size(kTechniques); ++t) {
      Row r;
      r.circuit = &s.circuits[ci];
      r.tech = t;
      r.vectors = kCircuits[ci].vectors[t] / divisor;
      r.sim = udsim::make_simulator(r.circuit->nl, kTechniques[t].kind);
      s.rows.push_back(std::move(r));
    }
  }
  return s;
}

/// Check one run: engine, row count, oracle rows, and agreement with every
/// earlier run on the same circuit (all rows of the common prefix).
bool check(Report& rep, Row& row, udsim::BatchResult& r) {
  rep.maybe_corrupt(r);
  Circuit& c = *row.circuit;
  const std::string what = c.label + "/" + kTechniques[row.tech].name;
  bool ok = row.sim->kind() == kTechniques[row.tech].kind &&
            r.vectors == row.vectors && c.oracle->mismatches(r) == 0;
  const std::size_t outs = r.outputs.size();
  const std::size_t common = std::min(c.agreed_rows, r.vectors) * outs;
  ok = ok && std::equal(r.values.begin(),
                        r.values.begin() + static_cast<std::ptrdiff_t>(common),
                        c.agreed.begin());
  if (ok && r.vectors > c.agreed_rows) {
    c.agreed = r.values;
    c.agreed_rows = r.vectors;
  }
  rep.op(ok, "stream " + what);
  return ok;
}

udsim::BatchResult run(const Row& row, unsigned threads,
                       udsim::MetricsRegistry* reg = nullptr) {
  const std::size_t pis = row.circuit->nl.primary_inputs().size();
  return row.sim->run_batch(
      std::span<const Bit>(row.circuit->vectors.data(), row.vectors * pis),
      udsim::BatchRunOptions{.num_threads = threads, .metrics = reg});
}

}  // namespace

void run_stream(Report& rep) {
  const Args& a = rep.args();
  Tracer& tr = rep.tracer();

  std::vector<double> setup_times;
  Setup s;
  for (int i = 0; i < kSetupReps; ++i) {
    s.clear();  // release the previous repetition before timing the next
    const double t0 = now_s();
    s = build_setup(a);
    setup_times.push_back(now_s() - t0);
  }
  for (std::size_t ci = 0; ci < s.circuits.size(); ++ci) {
    Circuit& c = s.circuits[ci];
    c.oracle = std::make_unique<OracleRows>(
        c.nl, c.vectors,
        sample_rows(c.vectors.size() / c.nl.primary_inputs().size(), kOracleRows,
                    a.seed + ci));
  }

  // Untraced rounds: every row once per round, so each class gets the same
  // number of samples. A traced run spends part of its time here to have an
  // untraced baseline for trace.overhead_pct.
  const double start = now_s();
  const double untraced_end = start + a.seconds * (a.trace ? 0.3 : 1.0);
  do {
    for (Row& row : s.rows) {
      const double t0 = now_s();
      udsim::BatchResult r = run(row, kThreads);
      row.t2.push_back(now_s() - t0);
      check(rep, row, r);
    }
  } while (now_s() < untraced_end);

  if (!a.trace) {
    std::vector<double> vps, ms;
    for (const Row& row : s.rows) {
      const double t = job_time(row.t2);
      vps.push_back(static_cast<double>(row.vectors) / t);
      ms.push_back(t * 1e3);
    }
    rep.set("setup_s", median(setup_times));
    rep.set("peak_rss_mb", peak_rss_mb());
    rep.set("vps", geomean(vps));
    rep.set("op_ms", geomean(ms));
    return;
  }

  // Traced rounds: each row at 1 thread (executor pass cost) and at 2
  // threads (sharding), with a fresh counter registry per run.
  tr.set_enabled(true);
  const double end = start + a.seconds;
  do {
    for (Row& row : s.rows) {
      const Circuit& c = *row.circuit;
      const std::string cls =
          std::string(kTechniques[row.tech].name) + "." + c.label;
      Scope outer(tr, "stream.row." + cls);
      udsim::MetricsRegistry reg1, reg2;
      Scope s1(tr, "exec.run_batch.t1." + cls);
      udsim::BatchResult r1 = run(row, 1, &reg1);
      row.t1_traced.push_back(s1.close());
      Scope s2(tr, "batch.run_batch.t2." + cls);
      udsim::BatchResult r2 = run(row, kThreads, &reg2);
      row.t2_traced.push_back(s2.close());
      check(rep, row, r1);
      check(rep, row, r2);
      const std::uint64_t v1 = reg1.counter("sim.vectors").value();
      row.ops_per_vector = v1 ? reg1.counter("exec.ops").value() / v1 : 0;
      const std::uint64_t v2 = reg2.counter("sim.vectors").value();
      row.seam_ratio =
          v2 ? static_cast<double>(reg2.counter("batch.seam_vectors").value()) /
                   static_cast<double>(v2)
             : 0.0;
    }
  } while (now_s() < end);

  std::vector<double> overhead;
  std::map<std::string, std::vector<double>> tech_vps;
  for (const Row& row : s.rows) {
    const std::string t = kTechniques[row.tech].name;
    const std::string c = row.circuit->label;
    const double n = static_cast<double>(row.vectors);
    const double t1 = median(row.t1_traced);
    const double pass_us = t1 / n * 1e6;
    rep.set("exec." + t + ".pass_us." + c, pass_us);
    rep.set("exec." + t + ".ops_per_vector." + c,
            static_cast<double>(row.ops_per_vector));
    rep.set("exec." + t + ".ns_per_op." + c,
            pass_us * 1e3 / static_cast<double>(row.ops_per_vector));
    rep.set("batch." + t + ".speedup." + c, t1 / median(row.t2_traced));
    rep.set("compile.ops." + t + "." + c,
            static_cast<double>(row.sim->compiled_program()->ops.size()));
    if (row.sim->kind() == EngineKind::ParallelCombined) {
      rep.set("batch.seam_ratio." + c, row.seam_ratio);
    }
    tech_vps[t].push_back(n / job_time(row.t2));
    overhead.push_back(median(row.t2_traced) / median(row.t2));
  }
  for (const auto& [t, v] : tech_vps) rep.set("stream." + t + "_vps", geomean(v));
  rep.set("trace.overhead_pct", (geomean(overhead) - 1.0) * 100.0);
}

}  // namespace pb
