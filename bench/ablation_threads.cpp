// Batch-layer thread-scaling ablation: throughput of the multi-threaded
// BatchRunner over the compiled parallel-combined program (the library's
// fastest engine) as a function of worker count, on the ISCAS-85-like
// profiles. Compiled unit-delay simulation has no cross-vector dependence
// beyond one seam-replay pass per shard, so speedup should track core count
// until memory bandwidth saturates.
//
// Extra options on top of the shared harness flags:
//   --threads 1,2,4,8   worker counts to sweep (default 1,2,4,<hardware>)
//   --json PATH         machine-readable results (default ablation_threads.json)
//
// Every sweep point is verified bit-identical to the 1-thread result before
// it is timed — a scaling number for wrong outputs is worthless.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/batch_runner.h"
#include "core/thread_pool.h"
#include "harness/table.h"
#include "parsim/parallel_sim.h"

namespace {

std::vector<unsigned> parse_thread_list(int argc, char** argv) {
  std::vector<unsigned> threads;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--threads") {
      std::string list = argv[i + 1];
      std::size_t pos = 0;
      while (pos < list.size()) {
        threads.push_back(
            static_cast<unsigned>(std::strtoul(list.c_str() + pos, nullptr, 10)));
        const std::size_t comma = list.find(',', pos);
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    }
  }
  threads.erase(std::remove(threads.begin(), threads.end(), 0u), threads.end());
  if (threads.empty()) {
    threads = {1, 2, 4, udsim::ThreadPool::hardware_threads()};
  }
  std::sort(threads.begin(), threads.end());
  threads.erase(std::unique(threads.begin(), threads.end()), threads.end());
  return threads;
}

std::string parse_json_path(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json") return argv[i + 1];
  }
  return "ablation_threads.json";
}

struct Point {
  unsigned threads;
  double us_per_vec;
  double speedup;
};

struct CircuitResult {
  std::string name;
  std::size_t gates;
  std::vector<Point> points;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace udsim;
  using namespace udsim::bench;
  const BenchArgs args = BenchArgs::parse(argc, argv);
  const std::vector<unsigned> thread_list = parse_thread_list(argc, argv);
  const std::string json_path = parse_json_path(argc, argv);
  print_header("Ablation", "batch simulation throughput vs worker threads", args);
  std::printf("hardware threads: %u\n\n", ThreadPool::hardware_threads());

  Table table({"circuit", "threads", "us/vec", "speedup"});
  std::vector<CircuitResult> results;
  for (const std::string& name : args.circuit_names()) {
    const Netlist nl = make_iscas85_like(name, args.seed);
    const ParallelCompiled compiled = compile_parallel(
        nl, {.trimming = true, .shift_elim = ShiftElim::PathTracing});
    std::vector<ArenaProbe> probes;
    for (NetId po : nl.primary_outputs()) {
      const auto pr = compiled.final_probe(po);
      probes.push_back({pr.word, pr.bit});
    }
    // Inputs prepared outside the timed region, as everywhere in bench/.
    const Workload w(nl.primary_inputs().size(), args.vectors, args.seed + 100);

    CircuitResult cr{name, nl.real_gate_count(), {}};
    std::vector<Bit> reference;
    double base_seconds = 0;
    for (unsigned t : thread_list) {
      BatchRunner batch(compiled.program, probes,
                        BatchOptions{.num_threads = t});
      const std::vector<Bit> out = batch.run(w.bits, w.vectors);  // warm + verify
      if (reference.empty()) {
        reference = out;
      } else if (out != reference) {
        std::fprintf(stderr,
                     "FATAL: %s outputs at %u threads differ from 1 thread\n",
                     name.c_str(), t);
        return 1;
      }
      const double secs = median_seconds(
          [&] { (void)batch.run(w.bits, w.vectors); }, args.trials);
      if (cr.points.empty()) base_seconds = secs;
      const double speedup = secs > 0 ? base_seconds / secs : 0;
      cr.points.push_back({t, us_per_vec(secs, w.vectors), speedup});
      table.add_row({name, std::to_string(t),
                     Table::num(us_per_vec(secs, w.vectors)),
                     Table::num(speedup, 2)});
    }
    results.push_back(std::move(cr));
  }
  table.print(std::cout);

  if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f,
                 "{\n  \"bench\": \"ablation_threads\",\n  \"vectors\": %zu,\n"
                 "  \"trials\": %d,\n  \"seed\": %llu,\n"
                 "  \"hardware_threads\": %u,\n  \"circuits\": [\n",
                 args.vectors, args.trials,
                 static_cast<unsigned long long>(args.seed),
                 ThreadPool::hardware_threads());
    for (std::size_t c = 0; c < results.size(); ++c) {
      const CircuitResult& cr = results[c];
      std::fprintf(f, "    {\"name\": \"%s\", \"gates\": %zu, \"points\": [",
                   cr.name.c_str(), cr.gates);
      for (std::size_t i = 0; i < cr.points.size(); ++i) {
        const Point& p = cr.points[i];
        std::fprintf(f,
                     "%s{\"threads\": %u, \"us_per_vector\": %.4f, "
                     "\"speedup\": %.3f}",
                     i ? ", " : "", p.threads, p.us_per_vec, p.speedup);
      }
      std::fprintf(f, "]}%s\n", c + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "could not write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}
