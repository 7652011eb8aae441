// Live-telemetry surface tests (DESIGN.md §5l): status_json() and
// health_json() round-trip through the hardened obs/json parser with every
// documented section and exact uint64 counters, the windowed outcome totals
// match the exactly-once outcome counters over the wire, responses carry
// trace ids that also tag the shard spans in the trace buffer, the status
// document covers the live service state, and the JSONL event log accounts
// for every resolution with lines byte-identical to the obs/json DOM's.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "gen/iscas_profiles.h"
#include "obs/event_log.h"
#include "obs/json.h"
#include "service/sim_service.h"

namespace udsim {
namespace {

std::shared_ptr<const Netlist> circuit(const char* name, unsigned seed = 1) {
  return std::make_shared<Netlist>(make_iscas85_like(name, seed));
}

std::vector<Bit> stream_for(const Netlist& nl, std::size_t n,
                            std::uint64_t seed = 7) {
  const std::size_t pis = nl.primary_inputs().size();
  std::vector<Bit> bits(n * pis);
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ull + 1;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    bits[i] = static_cast<Bit>(x & 1);
  }
  return bits;
}

/// A service that has resolved a known traffic mix: `completed` completions
/// plus one Rejected (ragged stream) and one DeadlineExpired (1ns budget).
struct DrivenService {
  std::unique_ptr<SimService> svc;
  std::uint64_t offered = 0;
  std::vector<SimResponse> responses;
};

DrivenService drive(ServiceConfig cfg, unsigned completed = 4) {
  DrivenService d;
  d.svc = std::make_unique<SimService>(cfg);
  const auto nl = circuit("c432");
  const std::vector<Bit> stream = stream_for(*nl, 16);
  const SessionId s = d.svc->open_session("telemetry-test");
  for (unsigned i = 0; i < completed; ++i) {
    d.responses.push_back(
        d.svc->run(s, SimRequest{.netlist = nl, .vectors = stream}));
    ++d.offered;
    EXPECT_EQ(d.responses.back().outcome, Outcome::Completed);
  }
  std::vector<Bit> ragged(stream.begin(), stream.end() - 1);
  d.responses.push_back(
      d.svc->run(s, SimRequest{.netlist = nl, .vectors = ragged}));
  ++d.offered;
  EXPECT_EQ(d.responses.back().outcome, Outcome::Rejected);
  d.responses.push_back(
      d.svc->run(s, SimRequest{.netlist = nl,
                               .vectors = stream,
                               .deadline = std::chrono::nanoseconds(1)}));
  ++d.offered;
  EXPECT_EQ(d.responses.back().outcome, Outcome::DeadlineExpired);
  return d;
}

TEST(TelemetryTest, StatusJsonRoundTripsWithEverySection) {
  DrivenService d = drive(ServiceConfig{});
  const JsonValue doc = JsonValue::parse(d.svc->status_json());
  for (const char* key :
       {"service", "health", "outcomes", "window", "slo", "events", "trace"}) {
    EXPECT_TRUE(doc.has(key)) << "missing section \"" << key << "\"";
  }
  const JsonValue& svc = doc.at("service");
  EXPECT_TRUE(svc.at("submitted").is_integer);
  EXPECT_EQ(svc.at("submitted").as_u64(), d.offered);
  EXPECT_TRUE(svc.at("breaker").is_string());
  EXPECT_TRUE(doc.at("health").has("state"));
  EXPECT_TRUE(doc.at("trace").at("dropped").is_integer);
}

TEST(TelemetryTest, OutcomeCountersAreExactAndMatchWindowTotals) {
  DrivenService d = drive(ServiceConfig{});
  const JsonValue doc = JsonValue::parse(d.svc->status_json());

  const JsonValue& outcomes = doc.at("outcomes");
  std::uint64_t sum = 0;
  for (const auto& [name, v] : outcomes.object) {
    ASSERT_TRUE(v.is_integer) << name << " is not an exact uint64";
    sum += v.as_u64();
  }
  EXPECT_EQ(sum, d.offered) << "outcome counters must sum to submissions";
  EXPECT_EQ(outcomes.at("completed").as_u64(), d.offered - 2);
  EXPECT_EQ(outcomes.at("rejected").as_u64(), 1u);
  EXPECT_EQ(outcomes.at("deadline_expired").as_u64(), 1u);

  // The invariant, observed over the wire: the rolling window's cumulative
  // totals equal the service's exactly-once counters, slot by slot.
  const JsonValue& totals = doc.at("window").at("outcome_totals");
  ASSERT_EQ(totals.object.size(), outcomes.object.size());
  for (const auto& [name, v] : totals.object) {
    EXPECT_EQ(v.as_u64(), outcomes.at(name).as_u64()) << "slot " << name;
  }

  const JsonValue& slo = doc.at("slo");
  EXPECT_EQ(slo.at("total").as_u64(), d.offered);
  // Rejected is a service-side refusal (an error); the expired deadline is
  // a client-chosen budget (good).
  EXPECT_EQ(slo.at("errors").as_u64(), 1u);
}

TEST(TelemetryTest, HealthJsonRoundTripsThroughTheParser) {
  DrivenService d = drive(ServiceConfig{}, 1);
  const JsonValue doc = JsonValue::parse(d.svc->health_json());
  EXPECT_TRUE(doc.has("state"));
  EXPECT_TRUE(doc.has("components"));
}

TEST(TelemetryTest, ResponsesCarryDistinctTraceIdsThatTagShardSpans) {
  DrivenService d = drive(ServiceConfig{});
  std::set<std::uint64_t> ids;
  for (const SimResponse& r : d.responses) {
    EXPECT_NE(r.trace_id, 0u);
    ids.insert(r.trace_id);
  }
  EXPECT_EQ(ids.size(), d.responses.size()) << "trace ids must be distinct";

  // The ids thread through to the span buffer: every batch.shard span of a
  // completed request carries a "request" arg holding one of them.
  bool tagged_shard = false;
  for (const TraceEvent& e : d.svc->metrics().trace_events()) {
    if (e.name != "batch.shard") continue;
    for (const auto& [k, v] : e.args) {
      if (k == "request" && ids.count(v) != 0) tagged_shard = true;
    }
  }
  EXPECT_TRUE(tagged_shard) << "no batch.shard span carried a request id";

  // And the Perfetto export stays parseable, with drop accounting.
  const JsonValue trace = JsonValue::parse(d.svc->metrics().trace_to_json());
  EXPECT_TRUE(trace.has("traceEvents"));
  EXPECT_TRUE(trace.at("metadata").has("trace.dropped"));
}

// The compile phases run inside the worker's RequestTraceScope, so a cold
// (cache-miss) request's compile.total span carries that request's id.
TEST(TelemetryTest, ColdRequestTagsItsCompileSpans) {
  SimService svc;
  const auto nl = circuit("c432");
  const SimResponse r =
      svc.run(svc.open_session("cold"),
              SimRequest{.netlist = nl, .vectors = stream_for(*nl, 16)});
  ASSERT_EQ(r.outcome, Outcome::Completed) << r.detail;
  ASSERT_FALSE(r.cache_hit);
  ASSERT_NE(r.trace_id, 0u);

  std::size_t compile_spans = 0;
  for (const TraceEvent& e : svc.metrics().trace_events()) {
    if (e.name != "compile.total") continue;
    ++compile_spans;
    std::uint64_t request = 0;
    for (const auto& [k, v] : e.args) {
      if (k == "request") request = v;
    }
    EXPECT_EQ(request, r.trace_id);
  }
  EXPECT_GT(compile_spans, 0u) << "the cold request recorded no compile.total";
}

TEST(TelemetryTest, DisabledTelemetryLeavesNoTraceOrWindow) {
  ServiceConfig cfg;
  cfg.telemetry.enabled = false;
  DrivenService d = drive(std::move(cfg), 1);
  for (const SimResponse& r : d.responses) EXPECT_EQ(r.trace_id, 0u);
  EXPECT_EQ(d.svc->window(), nullptr);
  // status_json still parses; it simply has no window/slo sections.
  const JsonValue doc = JsonValue::parse(d.svc->status_json());
  EXPECT_TRUE(doc.has("outcomes"));
  EXPECT_FALSE(doc.has("window"));
}

TEST(TelemetryTest, StatusJsonCoversServiceState) {
  DrivenService d = drive(ServiceConfig{});
  const JsonValue doc = JsonValue::parse(d.svc->status_json());
  EXPECT_TRUE(doc.at("service").at("queue_depth").is_integer);
  EXPECT_EQ(doc.at("service").at("breaker").string, "closed");
  EXPECT_EQ(doc.at("health").at("state").string, "healthy");
  const JsonValue& totals = doc.at("window").at("outcome_totals");
  EXPECT_EQ(totals.at("completed").as_u64(), d.offered - 2);
  EXPECT_TRUE(doc.at("slo").at("availability").is_number());
}

TEST(TelemetryTest, EventLogAccountsForEveryResolution) {
  const std::string path = "telemetry_test_events.jsonl";
  std::remove(path.c_str());
  ServiceConfig cfg;
  cfg.telemetry.event_log_path = path;
  std::uint64_t offered = 0;
  std::uint64_t written = 0;
  {
    DrivenService d = drive(std::move(cfg));
    offered = d.offered;
    JsonlEventLog* log = d.svc->event_log();
    ASSERT_NE(log, nullptr);
    EXPECT_TRUE(log->ok());
    log->flush();
    written = log->written();
    EXPECT_EQ(written + log->dropped(), offered);
    d.svc->shutdown();
  }
  // After the writer thread is gone: one parseable line per written event,
  // each carrying the documented schema.
  std::uint64_t lines = 0;
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[1 << 16];
  while (std::fgets(buf, sizeof buf, f) != nullptr) {
    ++lines;
    const JsonValue e = JsonValue::parse(buf);
    for (const char* key : {"trace_id", "outcome", "engine", "cache",
                            "latency_ns", "phase_ns"}) {
      EXPECT_TRUE(e.has(key)) << "line " << lines << " missing " << key;
    }
  }
  std::fclose(f);
  EXPECT_EQ(lines, written);
  std::remove(path.c_str());
}

/// Reference rendering of an event line: the same fields built through the
/// obs/json DOM and dumped on one line.
std::string dom_event_line(const ResolutionEvent& r) {
  JsonValue e = JsonValue::make_object();
  e.set("trace_id", JsonValue::make_uint(r.trace_id));
  e.set("request_id", JsonValue::make_uint(r.request_id));
  e.set("session", JsonValue::make_uint(r.session));
  e.set("outcome", JsonValue::make_string(r.outcome));
  e.set("engine", JsonValue::make_string(r.engine));
  e.set("width", JsonValue::make_uint(r.width));
  e.set("cache", JsonValue::make_string(r.cache));
  e.set("shed_level", JsonValue::make_uint(r.shed_level));
  e.set("attempts", JsonValue::make_uint(r.attempts));
  e.set("vectors_done", JsonValue::make_uint(r.vectors_done));
  e.set("latency_ns", JsonValue::make_uint(r.latency_ns));
  e.set("queue_ns", JsonValue::make_uint(r.queue_ns));
  e.set("run_ns", JsonValue::make_uint(r.run_ns));
  JsonValue phases = JsonValue::make_object();
  for (const RequestPhase ph :
       {RequestPhase::Admission, RequestPhase::QueueWait,
        RequestPhase::ShedDecide, RequestPhase::CacheHit,
        RequestPhase::CacheWait, RequestPhase::CacheBuild,
        RequestPhase::RunAttempt, RequestPhase::Backoff}) {
    const std::uint64_t ns = r.phase_ns[static_cast<std::size_t>(ph)];
    if (ns != 0) {
      phases.set(std::string(request_phase_name(ph)), JsonValue::make_uint(ns));
    }
  }
  e.set("phase_ns", std::move(phases));
  if (!r.detail.empty()) e.set("detail", JsonValue::make_string(r.detail));
  return e.dump(0);
}

TEST(TelemetryTest, EventLineRendererMatchesTheDomByteForByte) {
  ResolutionEvent base{.trace_id = 18446744073709551615ull,
                       .request_id = 7,
                       .session = 3,
                       .outcome = "completed",
                       .engine = "parallel",
                       .width = 64,
                       .cache = "hit",
                       .shed_level = 1,
                       .attempts = 2,
                       .vectors_done = 64,
                       .latency_ns = 181042,
                       .queue_ns = 12166,
                       .run_ns = 160935,
                       .detail = ""};
  ResolutionEvent all_phases = base;
  for (std::size_t i = 0; i < all_phases.phase_ns.size(); ++i) {
    all_phases.phase_ns[i] = 1000 + i;
  }
  ResolutionEvent with_detail = all_phases;
  with_detail.detail = "quote \" slash \\ newline \n ctrl \x01 tab \t "
                       "utf8 \xc3\xa9\xe2\x86\x92";

  for (const ResolutionEvent& r : {base, all_phases, with_detail}) {
    const std::string line = render_event_line(r);
    EXPECT_EQ(line, dom_event_line(r));
    const JsonValue parsed = JsonValue::parse(line);
    EXPECT_EQ(parsed.at("trace_id").as_u64(), r.trace_id);
    EXPECT_EQ(parsed.has("detail"), !r.detail.empty());
  }
  EXPECT_NE(render_event_line(base).find("\"phase_ns\": {}"),
            std::string::npos);
  EXPECT_EQ(JsonValue::parse(render_event_line(with_detail)).at("detail").string,
            with_detail.detail);
}

TEST(TelemetryTest, EventLogOnUnusableSinkDropsAndCountsInsteadOfFailing) {
  EventLogConfig cfg;
  cfg.path = "no-such-dir-telemetry-test/sub/events.jsonl";
  JsonlEventLog log(cfg);
  EXPECT_FALSE(log.ok());
  EXPECT_FALSE(log.append(ResolutionEvent{}));
  log.flush();
  EXPECT_EQ(log.written(), 0u);
  EXPECT_EQ(log.dropped(), 1u);
}

}  // namespace
}  // namespace udsim
