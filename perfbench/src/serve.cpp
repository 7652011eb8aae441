// serve: a closed loop of 2 client threads, each blocking on
// SimService::run() against a warm program cache over the ten ISCAS-85-like
// profiles. Loads the service queue, cache lookup, request resolution and
// telemetry, with tiny batches on the executor.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <thread>

#include "common.h"
#include "gen/iscas_profiles.h"
#include "gen/rng.h"
#include "service/sim_service.h"

namespace pb {

namespace {

using udsim::EngineKind;

constexpr int kSetupReps = 5;
constexpr unsigned kClients = 2;
constexpr std::size_t kVectorSets = 4;  ///< distinct streams per circuit
/// Requests per second of --seconds. The loop runs a fixed request count,
/// not a fixed time: the service keeps per-request trace events (up to a
/// cap), so peak memory grows with the count, and a time-bounded loop would
/// make it follow throughput. About 2800 requests/s on the reference host.
constexpr double kRequestsPerSecond = 2800;

/// Vectors per request, chosen once so that each request costs about the
/// same run time (about 0.7 ms at 1 batch thread on the reference host:
/// a per-request fixed cost of 0.03-0.43 ms that grows with the arena, plus
/// the passes) and the latency distribution has a single mode.
struct Profile {
  const char* name;
  std::size_t vectors;
};
constexpr Profile kProfiles[] = {
    {"c432", 400}, {"c499", 340}, {"c880", 256}, {"c1355", 130},
    {"c1908", 36}, {"c2670", 26}, {"c3540", 15}, {"c5315", 10},
    {"c6288", 8},  {"c7552", 5},
};

struct Circuit {
  std::shared_ptr<const udsim::Netlist> nl;
  std::vector<std::vector<Bit>> vectors;   ///< kVectorSets streams
  std::vector<std::vector<Bit>> expected;  ///< oracle outputs, all rows
};

/// What the metrics need from one request (not the whole response, so
/// that memory does not grow with the request count).
struct Sample {
  double done_s = 0;  ///< completion time, relative to the loop's start
  double latency_s = 0;
  bool ok = false;
  udsim::EngineKind engine = EngineKind::Event2;
  udsim::Outcome outcome = udsim::Outcome::ShutDown;
  bool cache_hit = false;
  unsigned attempts = 0;
  std::uint64_t queue_ns = 0, run_ns = 0, vectors = 0;
};

/// The loop is cut into windows of equal request counts (about 1 s each);
/// the end-to-end figures are taken over windows so that a burst of host
/// contention (it slows whole seconds of requests) weighs as one sample.
constexpr std::size_t kWindows = 20;

struct Phase {
  std::vector<double> window_vps;     ///< vectors completed / window time
  std::vector<double> window_p50_s;   ///< median latency within the window
  std::vector<double> latency_s;
  std::vector<double> queue_s, run_s, overhead_s;
  std::uint64_t requests = 0, cache_hits = 0, attempts = 0, vectors = 0;
  double wall_s = 0;
};

std::vector<Circuit> make_circuits(const Args& a) {
  std::vector<Circuit> cs;
  std::uint64_t i = 0;
  for (const Profile& p : kProfiles) {
    Circuit c;
    c.nl = std::make_shared<const udsim::Netlist>(
        udsim::make_iscas85_like(p.name, kCircuitSeed));
    for (std::size_t k = 0; k < kVectorSets; ++k) {
      c.vectors.push_back(random_vectors(c.nl->primary_inputs().size(),
                                         a.tiny ? 2 : p.vectors,
                                         (a.seed * 16 + i) * 8 + k));
    }
    cs.push_back(std::move(c));
    ++i;
  }
  return cs;
}

std::string event_log_path(const Args& a) {
  return (std::filesystem::temp_directory_path() /
          ("udbench-serve-events-" + std::to_string(a.seed) + ".jsonl"))
      .string();
}

std::unique_ptr<udsim::SimService> make_service(const Args& a, bool telemetry) {
  udsim::ServiceConfig cfg;
  cfg.batch_threads = 1;
  cfg.telemetry.enabled = telemetry;
  if (telemetry) cfg.telemetry.event_log_path = event_log_path(a);
  return std::make_unique<udsim::SimService>(cfg);
}

/// One request per circuit, so every later request is a cache hit.
void warm(udsim::SimService& svc, const std::vector<Circuit>& cs) {
  const udsim::SessionId session = svc.open_session("warm");
  for (const Circuit& c : cs) {
    const udsim::SimResponse r = svc.run(session, udsim::SimRequest{
                                                      .netlist = c.nl,
                                                      .vectors = c.vectors[0]});
    if (r.outcome != udsim::Outcome::Completed) {
      throw std::runtime_error("cache warm-up request did not complete: " +
                               r.detail);
    }
  }
}

bool check(Report& rep, const Circuit& c, std::size_t set,
           udsim::SimResponse& r) {
  rep.maybe_corrupt(r.batch);
  return r.outcome == udsim::Outcome::Completed &&
         r.engine == EngineKind::ParallelCombined && r.cache_hit &&
         r.batch.values == c.expected[set];
}

/// Run the closed loop for the request count of `seconds`. Request j goes
/// to circuit j mod 10 with a seeded choice of vector set. With the tracer
/// on, each request gets a span tagged with the service's trace id.
Phase closed_loop(Report& rep, udsim::SimService& svc,
                  const std::vector<Circuit>& cs, double seconds,
                  std::uint64_t seed) {
  Tracer& tr = rep.tracer();
  const auto total = static_cast<std::size_t>(
      std::max(static_cast<double>(cs.size()), seconds * kRequestsPerSecond));
  std::atomic<std::size_t> next{0};
  std::vector<std::vector<Sample>> per_client(kClients);
  std::vector<std::string> errors(kClients);
  const double start = now_s();
  std::vector<std::thread> clients;
  for (unsigned ci = 0; ci < kClients; ++ci) {
    clients.emplace_back([&, ci] {
      try {
        const udsim::SessionId session =
            svc.open_session("client-" + std::to_string(ci));
        auto& samples = per_client[ci];
        for (std::size_t j = next++; j < total; j = next++) {
          const std::size_t k = j % cs.size();
          const std::size_t set = udsim::Rng(seed * 1000003 + j).below(kVectorSets);
          udsim::SimRequest req{.netlist = cs[k].nl, .vectors = cs[k].vectors[set]};
          Sample s;
          udsim::SimResponse resp;
          {
            Scope span(tr, "service.run");
            const double t0 = now_s();
            resp = svc.run(session, std::move(req));
            const double t1 = now_s();
            s.latency_s = t1 - t0;
            s.done_s = t1 - start;
            span.set_request(resp.trace_id);
          }
          s.ok = check(rep, cs[k], set, resp);
          s.engine = resp.engine;
          s.outcome = resp.outcome;
          s.cache_hit = resp.cache_hit;
          s.attempts = resp.attempts;
          s.queue_ns = resp.queue_ns;
          s.run_ns = resp.run_ns;
          s.vectors = resp.vectors_done;
          samples.push_back(s);
        }
      } catch (const std::exception& e) {
        errors[ci] = e.what();
      }
    });
  }
  for (std::thread& t : clients) t.join();
  Phase ph;
  ph.wall_s = now_s() - start;
  for (unsigned ci = 0; ci < kClients; ++ci) {
    if (!errors[ci].empty()) rep.op(false, "serve client: " + errors[ci]);
    for (const Sample& s : per_client[ci]) {
      rep.op(s.ok, "serve request on " + std::string(udsim::engine_name(s.engine)) +
                       ", outcome " + std::string(udsim::outcome_name(s.outcome)));
      ph.latency_s.push_back(s.latency_s);
      const double q = static_cast<double>(s.queue_ns) * 1e-9;
      const double r = static_cast<double>(s.run_ns) * 1e-9;
      ph.queue_s.push_back(q);
      ph.run_s.push_back(r);
      ph.overhead_s.push_back(s.latency_s - q - r);
      ++ph.requests;
      ph.cache_hits += s.cache_hit ? 1 : 0;
      ph.attempts += s.attempts;
      ph.vectors += s.vectors;
    }
  }
  if (ph.requests == 0) throw std::runtime_error("serve: no request completed");

  std::vector<Sample> all;
  for (const auto& samples : per_client) all.insert(all.end(), samples.begin(), samples.end());
  std::sort(all.begin(), all.end(),
            [](const Sample& x, const Sample& y) { return x.done_s < y.done_s; });
  const std::size_t windows = std::min(kWindows, all.size());
  double window_start = 0;
  for (std::size_t w = 0; w < windows; ++w) {
    const std::size_t lo = all.size() * w / windows;
    const std::size_t hi = all.size() * (w + 1) / windows;
    std::vector<double> lat;
    double vectors = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      lat.push_back(all[i].latency_s);
      vectors += static_cast<double>(all[i].vectors);
    }
    const double window_end = all[hi - 1].done_s;
    ph.window_vps.push_back(vectors / std::max(window_end - window_start, 1e-9));
    ph.window_p50_s.push_back(median(lat));
    window_start = window_end;
  }
  return ph;
}

}  // namespace

void run_serve(Report& rep) {
  const Args& a = rep.args();
  std::vector<double> setup_times;
  std::vector<Circuit> cs;
  std::unique_ptr<udsim::SimService> svc;
  for (int i = 0; i < kSetupReps; ++i) {
    svc.reset();
    cs.clear();
    const double t0 = now_s();
    cs = make_circuits(a);
    svc = make_service(a, true);
    warm(*svc, cs);
    setup_times.push_back(now_s() - t0);
  }
  for (Circuit& c : cs) {
    const std::size_t pis = c.nl->primary_inputs().size();
    for (const std::vector<Bit>& v : c.vectors) {
      std::vector<std::size_t> rows(v.size() / pis);
      for (std::size_t r = 0; r < rows.size(); ++r) rows[r] = r;
      c.expected.push_back(OracleRows(*c.nl, v, rows).expected());
    }
  }

  const Phase base =
      closed_loop(rep, *svc, cs, a.seconds * (a.trace ? 0.3 : 1.0), a.seed);
  if (!a.trace) {
    rep.set("setup_s", median(setup_times));
    rep.set("peak_rss_mb", peak_rss_mb());
    // The upper quartile of window throughput is the rate counterpart of
    // job_time(): the least contended quarter of the run.
    rep.set("vps", quantile(base.window_vps, 0.75));
    rep.set("op_ms", job_time(base.window_p50_s) * 1e3);
    svc.reset();
    std::filesystem::remove(event_log_path(a));
    return;
  }

  rep.tracer().set_enabled(true);
  const Phase traced = closed_loop(rep, *svc, cs, a.seconds * 0.4, a.seed + 1);
  rep.tracer().set_enabled(false);
  svc.reset();
  std::filesystem::remove(event_log_path(a));
  const auto quiet = make_service(a, false);
  warm(*quiet, cs);
  const Phase off = closed_loop(rep, *quiet, cs, a.seconds * 0.3, a.seed + 2);

  const double n = static_cast<double>(traced.requests);
  rep.set("service.queue_ms", median(traced.queue_s) * 1e3);
  rep.set("service.run_ms", median(traced.run_s) * 1e3);
  rep.set("service.overhead_ms", median(traced.overhead_s) * 1e3);
  rep.set("service.cache_hit_ratio", static_cast<double>(traced.cache_hits) / n);
  rep.set("service.attempts_ratio", static_cast<double>(traced.attempts) / n);
  rep.set("service.p99_ms", quantile(base.latency_s, 0.99) * 1e3);
  rep.set("service.req_s", static_cast<double>(base.requests) / base.wall_s);
  rep.set("obs.telemetry_ms", (median(base.latency_s) - median(off.latency_s)) * 1e3);
  rep.set("trace.overhead_pct",
          (median(traced.latency_s) / median(base.latency_s) - 1.0) * 100.0);
}

}  // namespace pb
