// Telemetry scrape gate (DESIGN.md §5l): stand up a SimService with the
// full telemetry stack engaged — request traces, rolling window, JSONL
// event log — drive mixed traffic (completions, cache hits, a structural
// rejection, an impossible deadline), then scrape every surface the way a
// monitoring agent would and exit non-zero on anything malformed:
//
//   - status_json() must parse through the hardened obs/json parser and
//     carry every documented section; the cumulative outcome counters must
//     sum to the offered-request count, and the rolling window's
//     outcome_totals must equal them slot by slot (the exactly-once
//     invariant, observed over the wire).
//   - status_json() must carry the live service state: queue depth, the
//     breaker, the health state and the SLO availability.
//   - every event-log line must parse as JSON with the schema fields, and
//     written + dropped must equal the number of resolutions.
//   - trace_to_json() must parse and report trace.dropped in its metadata.
//
//   telemetry_smoke [--vectors N] [--seed S] [--circuits c432]
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "obs/json.h"
#include "service/sim_service.h"

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace udsim;
  using namespace udsim::bench;
  BenchArgs args = BenchArgs::parse(argc, argv);
  if (args.circuits.empty()) args.circuits = {"c432"};
  if (args.vectors == 1000) args.vectors = 64;  // default trimmed for a gate

  const std::string circuit = args.circuit_names().front();
  const auto nl =
      std::make_shared<Netlist>(make_iscas85_like(circuit, args.seed));
  const Workload w(nl->primary_inputs().size(), args.vectors, args.seed + 7);

  const std::string log_path = "telemetry_smoke_events.jsonl";
  std::remove(log_path.c_str());

  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.queue_capacity = 16;
  cfg.batch_threads = 1;
  cfg.telemetry.event_log_path = log_path;
  std::uint64_t offered = 0;
  std::uint64_t written = 0;

  {
    SimService svc(cfg);
    const SessionId session = svc.open_session("telemetry-smoke");

    // Completions (first a build, then cache hits), one ragged rejection,
    // one impossible deadline: several outcome slots get traffic.
    for (int i = 0; i < 6; ++i) {
      const SimResponse r =
          svc.run(session, SimRequest{.netlist = nl, .vectors = w.bits});
      ++offered;
      check(r.outcome == Outcome::Completed,
            "request " + std::to_string(i) + " completed");
      check(r.trace_id != 0, "completed response carries a trace id");
    }
    std::vector<Bit> ragged(w.bits.begin(), w.bits.end() - 1);
    const SimResponse bad =
        svc.run(session, SimRequest{.netlist = nl, .vectors = ragged});
    ++offered;
    check(bad.outcome == Outcome::Rejected, "ragged stream rejected");
    const SimResponse late = svc.run(
        session, SimRequest{.netlist = nl,
                            .vectors = w.bits,
                            .deadline = std::chrono::nanoseconds(1)});
    ++offered;
    check(late.outcome == Outcome::DeadlineExpired, "1ns deadline expired");

    // --- status_json: parse, shape, and the exactly-once invariant.
    const std::string status = svc.status_json();
    try {
      const JsonValue doc = JsonValue::parse(status);
      for (const char* key :
           {"service", "health", "outcomes", "window", "slo", "events",
            "trace"}) {
        check(doc.has(key), std::string("status_json has \"") + key + "\"");
      }
      const JsonValue& outcomes = doc.at("outcomes");
      std::uint64_t outcome_sum = 0;
      for (const auto& [name, v] : outcomes.object) {
        check(v.is_integer, "outcome counter " + name + " is an exact uint");
        outcome_sum += v.as_u64();
      }
      check(outcome_sum == offered,
            "outcome counters sum to offered (" +
                std::to_string(outcome_sum) + " vs " +
                std::to_string(offered) + ")");
      const JsonValue& totals = doc.at("window").at("outcome_totals");
      for (const auto& [name, v] : totals.object) {
        check(v.as_u64() == outcomes.at(name).as_u64(),
              "window total '" + name + "' equals the outcome counter");
      }
      check(doc.at("service").has("queue_depth"), "service carries queue_depth");
      check(doc.at("service").at("breaker").is_string(),
            "service carries the breaker state");
      check(doc.at("health").at("state").is_string(),
            "health carries its state");
      check(doc.at("slo").has("availability"), "slo carries availability");
      check(doc.at("events").at("enabled").boolean, "event log enabled");
    } catch (const std::exception& e) {
      check(false, std::string("status_json parses: ") + e.what());
    }

    // --- trace export: parses, and metadata reports drop accounting.
    try {
      const JsonValue trace = JsonValue::parse(svc.metrics().trace_to_json());
      check(trace.has("traceEvents"), "trace export has traceEvents");
      check(trace.at("metadata").has("trace.dropped"),
            "trace metadata reports trace.dropped");
    } catch (const std::exception& e) {
      check(false, std::string("trace_to_json parses: ") + e.what());
    }

    // --- event log: drain, then account for every resolution.
    JsonlEventLog* log = svc.event_log();
    check(log != nullptr && log->ok(), "event log is open");
    if (log != nullptr) {
      log->flush();
      written = log->written();
      check(written + log->dropped() == offered,
            "event log written+dropped == resolutions (" +
                std::to_string(written) + "+" +
                std::to_string(log->dropped()) + " vs " +
                std::to_string(offered) + ")");
    }
    svc.shutdown();
  }

  // Re-read the file after the service (and its writer thread) is gone.
  std::uint64_t lines = 0;
  if (std::FILE* f = std::fopen(log_path.c_str(), "r")) {
    char buf[1 << 16];
    while (std::fgets(buf, sizeof buf, f) != nullptr) {
      ++lines;
      try {
        const JsonValue e = JsonValue::parse(buf);
        for (const char* key : {"trace_id", "request_id", "outcome", "engine",
                                "width", "cache", "latency_ns", "phase_ns"}) {
          check(e.has(key),
                "event line " + std::to_string(lines) + " has \"" + key + "\"");
        }
        check(e.at("trace_id").as_u64() != 0, "event line trace_id non-zero");
      } catch (const std::exception& ex) {
        check(false,
              "event line " + std::to_string(lines) + " parses: " + ex.what());
      }
    }
    std::fclose(f);
  } else {
    check(false, "event log file exists");
  }
  check(lines == written,
        "file lines equal the written count (" + std::to_string(lines) +
            " vs " + std::to_string(written) + ")");

  if (g_failures != 0) {
    std::fprintf(stderr, "telemetry_smoke: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("telemetry_smoke: all scrapes well-formed (%llu requests, "
              "%llu event lines)\nok\n",
              static_cast<unsigned long long>(offered),
              static_cast<unsigned long long>(lines));
  return 0;
}
