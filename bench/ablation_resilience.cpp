// Resilience-overhead ablation: wall time of the compiled parallel-combined
// pass loop with no CancelToken attached (one dead branch per pass) versus
// an attached-but-idle token (one relaxed load + branch) versus a token with
// a far-future deadline armed (adds a clock read every
// CancelPoll::kClockStride passes). The design target (DESIGN.md §5f) is
// <=2% pass-loop overhead with cancellation enabled.
//
// Also measures the checkpoint path: a mid-run deadline stop produces a real
// BatchCheckpoint, then serialize (write) and parse+verify (restore) are
// timed and the wire size reported. Checkpoint cost is per *stop*, not per
// vector — it is off the pass loop entirely.
//
// Extra options on top of the shared harness flags:
//   --json PATH   machine-readable results (default ablation_resilience.json)
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/batch_runner.h"
#include "harness/table.h"
#include "parsim/parallel_sim.h"
#include "resilience/cancel.h"
#include "resilience/checkpoint.h"
#include "resilience/fault_injection.h"

namespace {

std::string parse_json_path(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json") return argv[i + 1];
  }
  return "ablation_resilience.json";
}

struct Row {
  std::string name;
  std::size_t gates;
  double off_us;        // no token attached
  double on_us;         // idle token attached
  double deadline_us;   // far-future deadline armed
  double on_pct;
  double deadline_pct;
  double ck_write_us;   // checkpoint_to_bytes
  double ck_restore_us; // checkpoint_from_bytes (parse + checksum verify)
  std::size_t ck_bytes;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace udsim;
  using namespace udsim::bench;
  const BenchArgs args = BenchArgs::parse(argc, argv);
  const std::string json_path = parse_json_path(argc, argv);
  print_header("Ablation", "resilience overhead (cancel poll off/on, checkpoint cost)",
               args);

  Table table({"circuit", "gates", "off us/vec", "on us/vec", "ddl us/vec",
               "on ovh", "ddl ovh", "ck write us", "ck restore us", "ck bytes"});
  std::vector<Row> rows;
  for (const std::string& name : args.circuit_names()) {
    const Netlist nl = make_iscas85_like(name, args.seed);
    const ParallelCompiled compiled = compile_parallel(
        nl, {.trimming = true, .shift_elim = ShiftElim::PathTracing});
    const Workload w(nl.primary_inputs().size(), args.vectors, args.seed + 100);
    std::vector<std::uint32_t> in(w.bits.size());
    for (std::size_t i = 0; i < in.size(); ++i) in[i] = w.bits[i];

    KernelRunner<std::uint32_t> runner(compiled.program);
    const auto replay = [&] {
      for (std::size_t v = 0; v < w.vectors; ++v) {
        runner.run(std::span<const std::uint32_t>(in.data() + v * w.inputs,
                                                  w.inputs));
      }
    };
    // No token: the poll is one dead branch per pass.
    runner.set_cancel(nullptr);
    const double off = median_seconds(replay, args.trials);
    // Idle token: one relaxed atomic load + predictable branch per pass.
    CancelToken token;
    runner.set_cancel(&token);
    const double on = median_seconds(replay, args.trials);
    // Armed deadline far in the future: adds one steady_clock read every
    // CancelPoll::kClockStride passes, never fires.
    token.set_deadline_after(std::chrono::hours(24));
    const double ddl = median_seconds(replay, args.trials);
    runner.set_cancel(nullptr);

    // Checkpoint path: stop a single-shard batch run halfway via an injected
    // deadline overrun, then time the wire round trip of the snapshot.
    std::vector<ArenaProbe> probes;
    for (const NetId po : nl.primary_outputs()) {
      const auto pr = compiled.final_probe(po);
      probes.push_back({pr.word, pr.bit});
    }
    FaultInjector inject(args.seed);
    inject.add_site({FaultSite::DeadlineOverrun, 0, w.vectors / 2, 0});
    BatchRunner stopper(compiled.program, probes,
                        BatchOptions{.num_threads = 1, .inject = &inject});
    const ResilientBatch r = stopper.run_resilient(w.bits, w.vectors);
    if (r.status != RunStatus::DeadlineExpired || r.checkpoint.shards.empty()) {
      std::fprintf(stderr, "%s: expected a mid-run checkpoint\n", name.c_str());
      return 1;
    }
    const BatchCheckpoint& ck = r.checkpoint;
    std::string bytes;
    const double wr = median_seconds([&] { bytes = checkpoint_to_bytes(ck); },
                                     args.trials);
    BatchCheckpoint parsed;
    const double rd = median_seconds(
        [&] { parsed = checkpoint_from_bytes(bytes); }, args.trials);
    if (parsed.vectors_done() != ck.vectors_done()) {
      std::fprintf(stderr, "%s: restore mismatch\n", name.c_str());
      return 1;
    }

    const double on_pct = off > 0 ? 100.0 * (on - off) / off : 0.0;
    const double ddl_pct = off > 0 ? 100.0 * (ddl - off) / off : 0.0;
    rows.push_back({name, nl.real_gate_count(), us_per_vec(off, w.vectors),
                    us_per_vec(on, w.vectors), us_per_vec(ddl, w.vectors),
                    on_pct, ddl_pct, 1e6 * wr, 1e6 * rd, bytes.size()});
    table.add_row({name, std::to_string(nl.real_gate_count()),
                   Table::num(us_per_vec(off, w.vectors)),
                   Table::num(us_per_vec(on, w.vectors)),
                   Table::num(us_per_vec(ddl, w.vectors)),
                   Table::num(on_pct, 2) + "%", Table::num(ddl_pct, 2) + "%",
                   Table::num(1e6 * wr), Table::num(1e6 * rd),
                   std::to_string(bytes.size())});
  }
  table.print(std::cout);
  std::printf("\n(positive overhead%% = token-attached run slower; timing "
              "noise can make small values negative. checkpoint cost is per "
              "stop, not per vector.)\n");

  if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f,
                 "{\n  \"bench\": \"ablation_resilience\",\n"
                 "  \"vectors\": %zu,\n  \"trials\": %d,\n  \"seed\": %llu,\n"
                 "  \"circuits\": [\n",
                 args.vectors, args.trials,
                 static_cast<unsigned long long>(args.seed));
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r2 = rows[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"gates\": %zu, "
                   "\"off_us_per_vector\": %.4f, \"on_us_per_vector\": %.4f, "
                   "\"deadline_us_per_vector\": %.4f, \"on_overhead_pct\": %.3f, "
                   "\"deadline_overhead_pct\": %.3f, "
                   "\"checkpoint_write_us\": %.3f, "
                   "\"checkpoint_restore_us\": %.3f, "
                   "\"checkpoint_bytes\": %zu}%s\n",
                   r2.name.c_str(), r2.gates, r2.off_us, r2.on_us,
                   r2.deadline_us, r2.on_pct, r2.deadline_pct, r2.ck_write_us,
                   r2.ck_restore_us, r2.ck_bytes,
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "could not write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}
