// SimService soak test (ISSUE 7 acceptance): N concurrent clients × mixed
// circuits × injected faults × random cancellations against one service,
// holding the exactly-once contract:
//
//   1. every submitted request's future resolves (no hang, no drop);
//   2. the per-outcome counters sum to exactly the submission count (no
//      double completion — resolve() is exactly-once);
//   3. every Completed response is bit-identical to a direct run_batch of
//      the same circuit and stream;
//   4. overload surfaces as structured QueueFull/Rejected, never a crash.
//
// All randomness is seeded (per-client mt19937), so a failure reproduces.
// The tier-1 profile stays small (<30 s, TSAN included); set UDSIM_SOAK_LONG=1
// for the opt-in long profile (more clients, more requests, bigger streams).
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/simulator.h"
#include "gen/iscas_profiles.h"
#include "obs/json.h"
#include "resilience/fault_injection.h"
#include "service/sim_service.h"

namespace udsim {
namespace {

struct SoakProfile {
  unsigned clients = 4;
  unsigned requests_per_client = 10;
  std::vector<std::size_t> vector_counts{32, 64, 96};
};

SoakProfile active_profile() {
  SoakProfile p;
  const char* lng = std::getenv("UDSIM_SOAK_LONG");
  if (lng != nullptr && lng[0] != '\0' && lng[0] != '0') {
    p.clients = 8;
    p.requests_per_client = 40;
    p.vector_counts = {64, 128, 256, 512};
  }
  return p;
}

/// One workload: a circuit and a fixed deterministic stream per length.
struct Workload {
  std::shared_ptr<const Netlist> netlist;
  std::map<std::size_t, std::vector<Bit>> streams;   ///< by vector count
  std::map<std::size_t, BatchResult> references;     ///< direct run_batch
};

std::vector<Bit> make_stream(const Netlist& nl, std::size_t n,
                             std::uint64_t seed) {
  const std::size_t pis = nl.primary_inputs().size();
  std::vector<Bit> bits(n * pis);
  std::uint64_t x = seed | 1;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    bits[i] = static_cast<Bit>(x & 1);
  }
  return bits;
}

TEST(ServiceSoakTest, ConcurrentClientsFaultsAndCancellations) {
  const SoakProfile profile = active_profile();

  // Mixed circuits, reference rows precomputed through the direct path.
  const char* names[] = {"c432", "c499", "c880"};
  std::vector<Workload> workloads;
  for (std::size_t w = 0; w < std::size(names); ++w) {
    Workload wl;
    wl.netlist =
        std::make_shared<Netlist>(make_iscas85_like(names[w], 1));
    for (const std::size_t n : profile.vector_counts) {
      wl.streams[n] = make_stream(*wl.netlist, n, 0x5eed + w);
      auto sim = make_simulator_with_fallback(*wl.netlist, SimPolicy{}, nullptr);
      wl.references[n] = sim->run_batch(wl.streams[n], 2);
    }
    workloads.push_back(std::move(wl));
  }

  // Deterministic faults on attempts <= 1: shard retries always run clean
  // eventually, so the retry machinery — not the injector — decides every
  // outcome.
  FaultInjector inject(0x50a4);
  inject.set_rate(FaultSite::WorkerThrow, 120, 1);
  inject.set_rate(FaultSite::ArenaCorrupt, 80, 1);
  inject.set_rate(FaultSite::AllocFail, 60, 1);

  ServiceConfig cfg;
  cfg.workers = 3;
  cfg.queue_capacity = 8;  // small: backpressure and shedding must trigger
  cfg.batch_threads = 2;
  cfg.inject = &inject;
  // Full telemetry stack engaged during the soak (ISSUE 10): the rolling
  // window and JSONL event log ride the same resolve() edge as the outcome
  // counters, so the assertion phase below can hold their invariants
  // against the exactly-once contract under real concurrency.
  const std::string event_log_path =
      "service_soak_events_" + std::to_string(::getpid()) + ".jsonl";
  std::remove(event_log_path.c_str());
  cfg.telemetry.event_log_path = event_log_path;
  cfg.telemetry.event_log_capacity = 4096;  // soak bursts must not drop
  SimService svc(cfg);

  struct Submitted {
    ServiceTicket ticket;
    std::size_t workload = 0;
    std::size_t vectors = 0;
  };
  std::mutex all_mu;
  std::vector<Submitted> all;

  const std::uint64_t total =
      std::uint64_t{profile.clients} * profile.requests_per_client;
  std::vector<std::thread> clients;
  for (unsigned c = 0; c < profile.clients; ++c) {
    clients.emplace_back([&, c] {
      std::mt19937 rng(1000 + c);
      const SessionId sid = svc.open_session("soak-" + std::to_string(c));
      for (unsigned i = 0; i < profile.requests_per_client; ++i) {
        const std::size_t w = rng() % workloads.size();
        const std::size_t n =
            profile.vector_counts[rng() % profile.vector_counts.size()];
        SimRequest req{.netlist = workloads[w].netlist,
                       .vectors = workloads[w].streams.at(n)};
        const unsigned dice = rng() % 10;
        if (dice == 0) {
          req.deadline = std::chrono::nanoseconds(1);  // certain expiry
        } else if (dice == 1) {
          req.deadline = std::chrono::seconds(120);  // generous, must not trip
        }
        ServiceTicket t = svc.submit(sid, std::move(req));
        const bool cancel_it = rng() % 5 == 0;
        if (cancel_it) {
          std::this_thread::sleep_for(
              std::chrono::microseconds(rng() % 500));
          (void)svc.cancel(t.id);  // may race completion; both are valid
        }
        {
          std::lock_guard lock(all_mu);
          all.push_back({std::move(t), w, n});
        }
        if (rng() % 3 == 0) std::this_thread::yield();
      }
    });
  }
  for (std::thread& t : clients) t.join();
  ASSERT_EQ(all.size(), total);

  // Invariant 1: everything resolves. A future that is not ready within the
  // guard window is a hang — the exact failure mode the service excludes.
  std::map<Outcome, std::uint64_t> outcomes;
  for (Submitted& s : all) {
    ASSERT_EQ(s.ticket.result.wait_for(std::chrono::seconds(120)),
              std::future_status::ready)
        << "request " << s.ticket.id << " hung";
    const SimResponse r = s.ticket.result.get();
    ++outcomes[r.outcome];
    // Invariant 3: admitted work is bit-identical to the direct path.
    if (r.outcome == Outcome::Completed) {
      const BatchResult& ref = workloads[s.workload].references.at(s.vectors);
      ASSERT_EQ(r.batch.values, ref.values)
          << "request " << s.ticket.id << " rows diverged from direct "
          << "run_batch";
      EXPECT_EQ(r.vectors_done, s.vectors);
    }
    if (r.outcome != Outcome::Completed) {
      EXPECT_FALSE(r.detail.empty() && r.outcome != Outcome::Cancelled)
          << outcome_name(r.outcome) << " without a detail string";
    }
  }

  // Invariant 2: outcome counters sum exactly to submissions (exactly-once).
  const auto snap = svc.metrics().snapshot();
  std::uint64_t counter_sum = 0;
  for (const auto& [name, value] : snap) {
    if (name.rfind("service.outcome.", 0) == 0) counter_sum += value;
  }
  EXPECT_EQ(counter_sum, total);
  EXPECT_EQ(snap.at("service.submitted"), total);
  std::uint64_t future_sum = 0;
  for (const auto& [outcome, count] : outcomes) future_sum += count;
  EXPECT_EQ(future_sum, total);

  // With faults clean from attempt 2 on, nothing should exhaust retries.
  EXPECT_EQ(outcomes[Outcome::Failed], 0u);
  // The mix must actually exercise the machinery.
  EXPECT_GT(outcomes[Outcome::Completed], 0u);

  // Deterministic deadline coverage: with the backlog fully drained (every
  // future above resolved), a 1 ns deadline cannot be beaten to the worker
  // and cannot hit backpressure — it must expire, with a reason.
  for (int i = 0; i < 2; ++i) {
    ServiceTicket probe = svc.submit(
        0, SimRequest{.netlist = workloads[0].netlist,
                      .vectors = workloads[0].streams.at(
                          profile.vector_counts.front()),
                      .deadline = std::chrono::nanoseconds(1)});
    ASSERT_EQ(probe.result.wait_for(std::chrono::seconds(30)),
              std::future_status::ready);
    EXPECT_EQ(probe.result.get().outcome, Outcome::DeadlineExpired);
  }
  const std::uint64_t grand_total = total + 2;

  svc.shutdown();
  // Exactly-once survives shutdown: counters are final and still sum.
  const auto final_snap = svc.metrics().snapshot();
  std::uint64_t final_sum = 0;
  for (const auto& [name, value] : final_snap) {
    if (name.rfind("service.outcome.", 0) == 0) final_sum += value;
  }
  EXPECT_EQ(final_sum, grand_total);
  EXPECT_EQ(final_snap.at("service.submitted"), grand_total);

  // Telemetry assertion phase (ISSUE 10). The rolling window's cumulative
  // totals are bumped on the same exactly-once edge as the outcome
  // counters, so after the soak they must agree slot by slot — no request
  // counted twice, none missed, regardless of interleaving.
  ASSERT_NE(svc.window(), nullptr);
  const std::vector<std::uint64_t> window_totals = svc.window()->totals();
  constexpr std::size_t kSlots =
      static_cast<std::size_t>(Outcome::ShutDown) + 1;
  ASSERT_EQ(window_totals.size(), kSlots);
  std::uint64_t window_sum = 0;
  for (std::size_t s = 0; s < kSlots; ++s) {
    const std::string counter =
        "service.outcome." +
        std::string(outcome_name(static_cast<Outcome>(s)));
    const auto it = final_snap.find(counter);
    const std::uint64_t expect = it == final_snap.end() ? 0 : it->second;
    EXPECT_EQ(window_totals[s], expect)
        << "rolling-window total diverged from " << counter;
    window_sum += window_totals[s];
  }
  EXPECT_EQ(window_sum, grand_total);

  // Every resolution appears exactly once in the event log or in its drop
  // counter — and with soak-sized capacity, nothing should have dropped.
  ASSERT_NE(svc.event_log(), nullptr);
  svc.event_log()->flush();
  const std::uint64_t written = svc.event_log()->written();
  const std::uint64_t dropped = svc.event_log()->dropped();
  EXPECT_EQ(written + dropped, grand_total);
  EXPECT_EQ(dropped, 0u) << "soak-sized event-log queue should not drop";

  // The status document renders the same numbers for a scraper.
  const JsonValue status = JsonValue::parse(svc.status_json());
  std::uint64_t wire_sum = 0;
  for (const auto& [name, v] : status.at("outcomes").object) {
    ASSERT_TRUE(v.is_integer) << name;
    wire_sum += v.as_u64();
  }
  EXPECT_EQ(wire_sum, grand_total);
  std::remove(event_log_path.c_str());
}

// Toolchain-outage phase (ISSUE 9): the same exactly-once contract with
// native enabled and the external compiler wedged solid. Every build
// attempt must die at compile_timeout, the breaker must trip and stop the
// bleeding, every request must still resolve via the IR chain with rows
// bit-identical to the direct path, and the health model must name the
// limping dependency while the outage lasts.
TEST(ServiceSoakTest, ToolchainOutagePhase) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::path tmp = fs::temp_directory_path(ec);
  if (ec) tmp = "/tmp";
  const fs::path dir =
      tmp / ("udsim-soak-outage-" + std::to_string(::getpid()));
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  const std::string fake_cc = (dir / "hungcc.sh").string();
  {
    std::ofstream f(fake_cc);
    f << "#!/bin/sh\nsleep 30\n";
  }
  fs::permissions(fs::path(fake_cc), fs::perms::owner_all,
                  fs::perm_options::replace, ec);

  // Six distinct circuits: more program-cache misses than the breaker
  // threshold + worker count, so some builds must be attempted after the
  // breaker opens — those are the short-circuited ones the test asserts.
  const char* names[] = {"c432", "c499", "c880"};
  std::vector<Workload> workloads;
  for (std::size_t w = 0; w < 6; ++w) {
    Workload wl;
    wl.netlist = std::make_shared<Netlist>(
        make_iscas85_like(names[w % std::size(names)], 1 + w / std::size(names)));
    wl.streams[32] = make_stream(*wl.netlist, 32, 0xfeed + w);
    auto sim = make_simulator_with_fallback(*wl.netlist, SimPolicy{}, nullptr);
    wl.references[32] = sim->run_batch(wl.streams[32], 2);
    workloads.push_back(std::move(wl));
  }

  ServiceConfig cfg;
  cfg.workers = 3;
  cfg.enable_native = true;
  cfg.native.compiler = fake_cc;
  cfg.native.compile_timeout = std::chrono::milliseconds(200);
  cfg.native.cache_dir = (dir / "cache").string();
  cfg.native_breaker.failure_threshold = 2;
  cfg.native_breaker.cooldown = std::chrono::seconds(60);
  SimService svc(cfg);

  constexpr unsigned kClients = 3;
  constexpr unsigned kPerClient = 8;
  struct Submitted {
    ServiceTicket ticket;
    std::size_t workload = 0;
  };
  std::mutex all_mu;
  std::vector<Submitted> all;
  std::vector<std::thread> clients;
  for (unsigned c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const SessionId sid = svc.open_session("outage-" + std::to_string(c));
      for (unsigned i = 0; i < kPerClient; ++i) {
        // Round-robin with a per-client offset: every circuit is requested
        // by every client, deterministically.
        const std::size_t w = (i + c) % workloads.size();
        ServiceTicket t =
            svc.submit(sid, SimRequest{.netlist = workloads[w].netlist,
                                       .vectors = workloads[w].streams.at(32),
                                       .deadline = std::chrono::seconds(60)});
        std::lock_guard lock(all_mu);
        all.push_back({std::move(t), w});
      }
    });
  }
  for (std::thread& t : clients) t.join();

  const std::uint64_t total = std::uint64_t{kClients} * kPerClient;
  ASSERT_EQ(all.size(), total);
  std::uint64_t completed = 0;
  for (Submitted& s : all) {
    ASSERT_EQ(s.ticket.result.wait_for(std::chrono::seconds(120)),
              std::future_status::ready)
        << "request " << s.ticket.id << " hung during the toolchain outage";
    const SimResponse r = s.ticket.result.get();
    ASSERT_EQ(r.outcome, Outcome::Completed) << r.detail;
    EXPECT_NE(r.engine, EngineKind::Native)
        << "no native engine can exist while the toolchain hangs";
    ASSERT_EQ(r.batch.values, workloads[s.workload].references.at(32).values)
        << "request " << s.ticket.id << " diverged from the direct path";
    ++completed;
  }
  EXPECT_EQ(completed, total);

  const auto snap = svc.metrics().snapshot();
  EXPECT_EQ(snap.at("service.outcome.completed"), total);
  EXPECT_GE(snap.at("breaker.toolchain.opened"), 1u);
  // Every build that ran was killed at the timeout, and the breaker capped
  // the bleeding: with 3 workers racing the open transition, at most
  // threshold + workers - 1 builds can start before everyone short-circuits.
  EXPECT_EQ(snap.at("native.builds"), snap.at("native.compile_timeout"));
  EXPECT_LE(snap.at("native.builds"),
            std::uint64_t{cfg.native_breaker.failure_threshold} + cfg.workers -
                1);
  EXPECT_GE(snap.at("native.breaker_skipped"), 1u);

  // The outage is visible while it lasts: Degraded, breaker named.
  const SimService::HealthReport h = svc.health();
  EXPECT_EQ(h.state, HealthState::Degraded);
  bool breaker_named = false;
  for (const auto& c : h.components) {
    if (c.name == "toolchain.breaker") {
      breaker_named = c.state == HealthState::Degraded &&
                      c.detail.find("toolchain") != std::string::npos;
    }
  }
  EXPECT_TRUE(breaker_named) << svc.health_json();

  // Mid-outage scrape: the status document must carry the live degraded
  // state — a monitoring agent polling during the outage sees the open
  // breaker, and the document stays well-formed while the service limps.
  const JsonValue status = JsonValue::parse(svc.status_json());
  EXPECT_EQ(status.at("service").at("breaker").string, "open")
      << svc.status_json();
  EXPECT_NE(status.at("health").at("state").string, "healthy");

  svc.shutdown();
  fs::remove_all(dir, ec);
}

}  // namespace
}  // namespace udsim
