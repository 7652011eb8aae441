// Serving walkthrough: stand up an in-process SimService and drive it the
// way a long-lived client would — open a session, submit requests against
// the shared compiled-program cache, watch a deadline expire and a
// cancellation land as structured outcomes, and read the per-session report.
//
//   service_sim [circuit] [vectors] [requests] [--status]
//                                  (defaults: c880 64 4)
//
//   --status      print the live status_json() document after the traffic
//
// Everything a request can do is visible in its SimResponse: the outcome,
// the engine that served it, whether the program came from the cache, how
// long it queued and ran, and (for interrupted batch runs) a resumable
// checkpoint. The service never throws at the caller and never hangs a
// ticket — overload, bad input, deadlines and shutdown all come back as
// one of the seven Outcome values.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "service/sim_service.h"

int main(int argc, char** argv) {
  using namespace udsim;
  bool show_status = false;
  std::vector<std::string> pos;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--status") {
      show_status = true;
    } else {
      pos.push_back(a);
    }
  }
  const std::string circuit = !pos.empty() ? pos[0] : "c880";
  const std::size_t vectors =
      pos.size() > 1 ? std::strtoull(pos[1].c_str(), nullptr, 10) : 64;
  const unsigned requests =
      pos.size() > 2 ? static_cast<unsigned>(std::atoi(pos[2].c_str())) : 4;

  const auto nl =
      std::make_shared<Netlist>(examples::load_circuit(circuit));
  const std::vector<Bit> stream =
      examples::xorshift_stream(vectors, nl->primary_inputs().size());

  // A small service: two request workers, a bounded queue, default engine
  // chain, program cache shared by every request.
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.queue_capacity = 16;
  SimService svc(cfg);
  const SessionId session = svc.open_session("walkthrough");

  // 1. Repeated requests for the same circuit: the first compiles (cache
  // miss), the rest reuse the cached program (hits).
  for (unsigned i = 0; i < requests; ++i) {
    const SimResponse r =
        svc.run(session, SimRequest{.netlist = nl, .vectors = stream});
    if (r.outcome != Outcome::Completed) {
      std::fprintf(stderr, "request %u: unexpected outcome %s (%s)\n", i,
                   std::string(outcome_name(r.outcome)).c_str(),
                   r.detail.c_str());
      return 1;
    }
    std::printf("request %u: %s via %s, cache %s, queued %.1f us, ran %.1f us, "
                "%llu vectors\n",
                i, std::string(outcome_name(r.outcome)).c_str(),
                std::string(engine_name(r.engine)).c_str(),
                r.cache_hit ? "hit" : "miss",
                1e-3 * static_cast<double>(r.queue_ns),
                1e-3 * static_cast<double>(r.run_ns),
                static_cast<unsigned long long>(r.vectors_done));
  }

  // 2. A deadline the request cannot meet: a structured DeadlineExpired, not
  // an exception and not a hang.
  const SimResponse late = svc.run(
      session, SimRequest{.netlist = nl,
                          .vectors = stream,
                          .deadline = std::chrono::nanoseconds(1)});
  std::printf("1ns-deadline request: %s (%s)\n",
              std::string(outcome_name(late.outcome)).c_str(),
              late.detail.c_str());
  if (late.outcome != Outcome::DeadlineExpired) return 1;

  // 3. Cancellation by ticket id: submit asynchronously, cancel, collect.
  ServiceTicket ticket =
      svc.submit(session, SimRequest{.netlist = nl, .vectors = stream});
  (void)svc.cancel(ticket.id);
  const SimResponse cancelled = ticket.result.get();
  std::printf("cancelled request: %s%s%s\n",
              std::string(outcome_name(cancelled.outcome)).c_str(),
              cancelled.detail.empty() ? "" : " — ",
              cancelled.detail.c_str());
  // Racing completion is legal: Completed and Cancelled are both valid here.
  if (cancelled.outcome != Outcome::Cancelled &&
      cancelled.outcome != Outcome::Completed) {
    return 1;
  }

  // 4. Malformed input: a stream that is not a whole number of vectors is
  // Rejected at submit, before it costs a queue slot.
  std::vector<Bit> ragged(stream.begin(), stream.end() - 1);
  const SimResponse bad =
      svc.run(session, SimRequest{.netlist = nl, .vectors = ragged});
  std::printf("ragged request: %s (%s)\n",
              std::string(outcome_name(bad.outcome)).c_str(),
              bad.detail.c_str());
  if (bad.outcome != Outcome::Rejected) return 1;

  // 5. What the service saw, per this session and overall.
  const SimService::Stats stats = svc.stats();
  std::printf("service: %zu cached program(s), %zu bytes resident, "
              "queue %zu/%zu\n",
              stats.cache_entries, stats.cache_bytes, stats.queue_depth,
              stats.queue_capacity);
  std::printf("session report: %s\n", svc.session_report(session).c_str());

  // 6. The health model (DESIGN.md §5k): per-component state — lifecycle,
  // toolchain breaker, queue, shed ladder, poison quarantine — folded into
  // one overall Healthy/Degraded/Unhealthy, exported as JSON for scrapes.
  const SimService::HealthReport health = svc.health();
  std::printf("health: %s\n%s\n",
              std::string(health_state_name(health.state)).c_str(),
              svc.health_json().c_str());
  if (health.state != HealthState::Healthy) return 1;

  // 7. Live telemetry (DESIGN.md §5l): the status document composes
  // everything above — stats, health, exactly-once outcome counters, the
  // rolling window with latency percentiles and the SLO view — for a scrape
  // loop or dashboard.
  if (show_status) {
    std::printf("status:\n%s\n", svc.status_json().c_str());
  }

  svc.shutdown();
  std::printf("ok\n");
  return 0;
}
