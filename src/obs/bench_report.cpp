#include "obs/bench_report.h"

#include <algorithm>
#include <cstdio>
#include <span>

#include "analysis/compile_budget.h"
#include "core/simulator.h"
#include "core/width_dispatch.h"
#include "harness/timer.h"
#include "netlist/netlist.h"
#include "obs/json.h"

namespace udsim {

namespace {

[[nodiscard]] bool is_nondeterministic_key(const std::string& name) {
  const auto ends_with = [&](std::string_view suffix) {
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  // Wall-clock counters and span call counts (calls vary with attach/detach
  // choreography, not simulation behavior); native.* describes toolchain and
  // cache state (hit vs miss depends on what earlier runs left in the cache
  // directory); everything else the registry holds is a per-pass constant
  // times a deterministic pass count.
  if (name.rfind("native.", 0) == 0) return true;
  return ends_with(".ns") || ends_with(".us") || ends_with(".calls");
}

[[nodiscard]] std::vector<Bit> xorshift_stream(std::size_t vectors,
                                               std::size_t inputs,
                                               std::uint64_t x) {
  if (x == 0) x = 88172645463325252ull;
  std::vector<Bit> stream(vectors * inputs);
  for (Bit& b : stream) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<Bit>(x & 1);
  }
  return stream;
}

/// One row at the `word_bits` request (dispatch_width convention). The
/// engine rows pin 32-bit lanes so their exact counters stay comparable
/// across ledgers; the width rows below cover the wider lanes.
[[nodiscard]] BenchEngineResult measure_engine(const Netlist& nl,
                                               EngineKind kind,
                                               unsigned threads,
                                               std::span<const Bit> stream,
                                               const BenchRunConfig& cfg,
                                               int word_bits = 32) {
  BenchEngineResult row;
  row.engine = bench_engine_slug(kind);
  row.threads = threads;

  MetricsRegistry reg;
  CompileGuard guard;
  guard.metrics = &reg;
  auto sim = make_simulator(nl, kind, guard, word_bits);
  if (const Program* program = sim->compiled_program()) {
    row.word_bits = program->word_bits;
  }

  // Timed runs are detached from the registry: the measured loop is the
  // production loop (one dead branch per pass), not the metered one.
  sim->set_metrics(nullptr);
  row.seconds = median_seconds(
      [&] { (void)sim->run_batch(stream, threads); }, cfg.trials);
  if (row.seconds > 0.0) {
    row.vectors_per_sec = static_cast<double>(cfg.vectors) / row.seconds;
    row.us_per_vector = row.seconds * 1e6 / static_cast<double>(cfg.vectors);
  }

  // One metered run of exactly cfg.vectors vectors: the exact counters are
  // then independent of the trial count above.
  sim->set_metrics(&reg);
  (void)sim->run_batch(stream, threads);
  sim->set_metrics(nullptr);
  for (const auto& [name, value] : reg.snapshot()) {
    if (!is_nondeterministic_key(name)) row.exact.emplace(name, value);
  }
  const std::uint64_t stable = row.exact.count("compile.words_stable")
                                   ? row.exact.at("compile.words_stable")
                                   : 0;
  const std::uint64_t gap =
      row.exact.count("compile.words_gap") ? row.exact.at("compile.words_gap") : 0;
  if (stable + gap != 0 || row.exact.count("compile.words_stable")) {
    row.exact["compile.trimmed_words"] = stable + gap;
  }
  if (const Program* program = sim->compiled_program()) {
    const CompileCostEstimate est =
        measure_compile_cost(*program, kind, nl.net_count());
    row.exact["compile.peak_bytes"] = est.peak_bytes;
    if (nl.gate_count() != 0) {
      row.arena_bytes_per_gate = static_cast<double>(est.peak_bytes) /
                                 static_cast<double>(nl.gate_count());
    }
  }
  return row;
}

}  // namespace

std::string bench_engine_slug(EngineKind k) {
  switch (k) {
    case EngineKind::Event2: return "event2";
    case EngineKind::Event3: return "event3";
    case EngineKind::PCSet: return "pcset";
    case EngineKind::Parallel: return "parallel";
    case EngineKind::ParallelTrimmed: return "parallel-trimmed";
    case EngineKind::ParallelPathTracing: return "parallel-path-tracing";
    case EngineKind::ParallelCycleBreaking: return "parallel-cycle-breaking";
    case EngineKind::ParallelCombined: return "parallel-combined";
    case EngineKind::ZeroDelayLcc: return "zero-delay-lcc";
    case EngineKind::Native: return "native";
  }
  return "unknown";
}

BenchReport run_bench_report(
    const std::vector<std::pair<std::string, const Netlist*>>& circuits,
    const BenchRunConfig& cfg) {
  BenchReport report;
  report.vectors = cfg.vectors;
  report.seed = cfg.seed;
  report.trials = cfg.trials;
  report.batch_threads = cfg.batch_threads;
  for (const auto& [name, nl] : circuits) {
    BenchCircuitResult cr;
    cr.circuit = name;
    cr.gates = nl->gate_count();
    cr.inputs = nl->primary_inputs().size();
    cr.outputs = nl->primary_outputs().size();
    const std::vector<Bit> stream =
        xorshift_stream(cfg.vectors, cr.inputs, cfg.seed);
    for (EngineKind kind : cfg.engines) {
      cr.engines.push_back(measure_engine(*nl, kind, 1, stream, cfg));
    }
    if (cfg.with_batch && cfg.batch_threads > 1) {
      cr.engines.push_back(measure_engine(*nl, EngineKind::ParallelCombined,
                                          cfg.batch_threads, stream, cfg));
    }
    if (cfg.with_native) {
      try {
        cr.engines.push_back(
            measure_engine(*nl, EngineKind::Native, 1, stream, cfg));
      } catch (const NativeError&) {
        // No usable C compiler (or cache) on this machine: the native row
        // is absent rather than fabricated; check_bench_report only flags
        // rows the *baseline* has, so IR baselines still check clean.
      }
    }
    // Width rows: LCC at every lane width (run_batch packs word_bits
    // vectors per pass, so throughput scales with the lane — DESIGN.md
    // §5j), skipping the width the default row above already measured.
    for (const int w : supported_widths()) {
      const bool measured =
          std::any_of(cr.engines.begin(), cr.engines.end(), [&](const auto& e) {
            return e.engine == "zero-delay-lcc" && e.threads == 1 &&
                   e.word_bits == w;
          });
      if (!measured) {
        cr.engines.push_back(
            measure_engine(*nl, EngineKind::ZeroDelayLcc, 1, stream, cfg, w));
      }
    }
    report.circuits.push_back(std::move(cr));
  }
  return report;
}

std::string BenchReport::to_json() const {
  JsonValue v = JsonValue::make_object();
  v.set("schema", JsonValue::make_string(schema));
  v.set("vectors", JsonValue::make_uint(vectors));
  v.set("seed", JsonValue::make_uint(seed));
  v.set("trials", JsonValue::make_uint(static_cast<std::uint64_t>(trials)));
  v.set("batch_threads", JsonValue::make_uint(batch_threads));
  v.set("word_bits", JsonValue::make_uint(static_cast<std::uint64_t>(word_bits)));
  JsonValue& cj = v.set("circuits", JsonValue::make_array());
  for (const BenchCircuitResult& c : circuits) {
    JsonValue ce = JsonValue::make_object();
    ce.set("circuit", JsonValue::make_string(c.circuit));
    ce.set("gates", JsonValue::make_uint(c.gates));
    ce.set("inputs", JsonValue::make_uint(c.inputs));
    ce.set("outputs", JsonValue::make_uint(c.outputs));
    JsonValue& ej = ce.set("engines", JsonValue::make_array());
    for (const BenchEngineResult& e : c.engines) {
      JsonValue ee = JsonValue::make_object();
      ee.set("engine", JsonValue::make_string(e.engine));
      ee.set("threads", JsonValue::make_uint(e.threads));
      ee.set("word_bits",
             JsonValue::make_uint(static_cast<std::uint64_t>(e.word_bits)));
      ee.set("seconds", JsonValue::make_double(e.seconds));
      ee.set("vectors_per_sec", JsonValue::make_double(e.vectors_per_sec));
      ee.set("us_per_vector", JsonValue::make_double(e.us_per_vector));
      ee.set("arena_bytes_per_gate",
             JsonValue::make_double(e.arena_bytes_per_gate));
      JsonValue& xj = ee.set("exact", JsonValue::make_object());
      for (const auto& [name, value] : e.exact) {
        xj.set(name, JsonValue::make_uint(value));
      }
      ej.array.push_back(std::move(ee));
    }
    cj.array.push_back(std::move(ce));
  }
  return v.dump();
}

std::vector<std::string> check_bench_report(const BenchReport& current,
                                            const JsonValue& baseline,
                                            const BenchCheckConfig& cfg) {
  std::vector<std::string> violations;
  if (!baseline.is_object() || !baseline.has("schema") ||
      !baseline.at("schema").is_string()) {
    violations.push_back("baseline: not a bench report (missing schema)");
    return violations;
  }
  if (baseline.at("schema").string != current.schema) {
    violations.push_back("baseline schema '" + baseline.at("schema").string +
                         "' != '" + current.schema + "'");
    return violations;
  }
  // Exact counters only compare at equal geometry: exec.ops is a function
  // of (circuit, vectors), the input stream of (inputs, seed).
  if (!baseline.has("vectors") || baseline.at("vectors").as_u64() != current.vectors ||
      !baseline.has("seed") || baseline.at("seed").as_u64() != current.seed) {
    violations.push_back(
        "baseline geometry differs (vectors/seed); re-generate the baseline "
        "with the current settings before checking");
    return violations;
  }

  // Index the current rows by (circuit, engine, threads, lane width).
  const auto row_key = [](const std::string& circuit, const std::string& engine,
                          std::uint64_t threads, std::uint64_t word_bits) {
    return circuit + "/" + engine + "@" + std::to_string(threads) + "/w" +
           std::to_string(word_bits);
  };
  std::map<std::string, const BenchEngineResult*> rows;
  for (const BenchCircuitResult& c : current.circuits) {
    for (const BenchEngineResult& e : c.engines) {
      rows.emplace(row_key(c.circuit, e.engine, e.threads,
                           static_cast<std::uint64_t>(e.word_bits)),
                   &e);
    }
  }
  // Baselines predating per-row widths carry one report-level word_bits;
  // their rows compare against current rows at that width.
  const std::uint64_t baseline_word_bits =
      baseline.has("word_bits") ? baseline.at("word_bits").as_u64() : 32;

  const JsonValue* bcircuits = baseline.find("circuits");
  if (!bcircuits || !bcircuits->is_array()) {
    violations.push_back("baseline: missing circuits array");
    return violations;
  }
  for (const JsonValue& bc : bcircuits->array) {
    const std::string circuit =
        bc.has("circuit") ? bc.at("circuit").string : "?";
    const JsonValue* bengines = bc.find("engines");
    if (!bengines || !bengines->is_array()) continue;
    for (const JsonValue& be : bengines->array) {
      const std::string engine = be.has("engine") ? be.at("engine").string : "?";
      const std::uint64_t threads =
          be.has("threads") ? be.at("threads").as_u64() : 1;
      const std::uint64_t word_bits = be.has("word_bits")
                                          ? be.at("word_bits").as_u64()
                                          : baseline_word_bits;
      const std::string key = row_key(circuit, engine, threads, word_bits);
      const auto it = rows.find(key);
      if (it == rows.end()) {
        violations.push_back(key + ": in baseline but not in current run "
                             "(coverage shrank)");
        continue;
      }
      const BenchEngineResult& cur = *it->second;
      if (const JsonValue* bexact = be.find("exact"); bexact && bexact->is_object()) {
        for (const auto& [name, bval] : bexact->object) {
          const auto cit = cur.exact.find(name);
          if (cit == cur.exact.end()) {
            violations.push_back(key + ": exact counter '" + name +
                                 "' missing from current run");
            continue;
          }
          if (cit->second != bval.as_u64()) {
            violations.push_back(
                key + ": exact counter '" + name + "' drifted: baseline " +
                std::to_string(bval.as_u64()) + " != current " +
                std::to_string(cit->second));
          }
        }
      }
      if (cfg.check_throughput && be.has("vectors_per_sec")) {
        const double base_vps = be.at("vectors_per_sec").as_double();
        const double floor = base_vps * (1.0 - cfg.max_regression_pct / 100.0);
        if (base_vps > 0.0 && cur.vectors_per_sec < floor) {
          char buf[160];
          std::snprintf(buf, sizeof buf,
                        "%s: throughput regressed beyond %.1f%%: baseline "
                        "%.0f vec/s, current %.0f vec/s",
                        key.c_str(), cfg.max_regression_pct, base_vps,
                        cur.vectors_per_sec);
          violations.emplace_back(buf);
        }
      }
    }
  }
  return violations;
}

}  // namespace udsim
