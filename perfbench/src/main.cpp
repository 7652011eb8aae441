// udbench: runs one workload of the udsim benchmark and prints its metrics
// as one JSON object on the last line of standard output.
//
//   udbench --workload stream|build|serve --seed N --seconds S
//           --trace 0|1 [--out-dir DIR] [--tiny] [--corrupt]
//
// Exit code 0 only when every operation passed its output check.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common.h"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "udbench: " << why
            << "\nusage: udbench --workload stream|build|serve --seed N"
               " --seconds S --trace 0|1 [--out-dir DIR] [--tiny] [--corrupt]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  pb::Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + k);
      return argv[++i];
    };
    try {
      if (k == "--workload") {
        a.workload = value();
      } else if (k == "--seed") {
        a.seed = std::stoull(value());
      } else if (k == "--seconds") {
        a.seconds = std::stod(value());
      } else if (k == "--trace") {
        a.trace = std::stoi(value()) != 0;
      } else if (k == "--out-dir") {
        a.out_dir = value();
      } else if (k == "--tiny") {
        a.tiny = true;
      } else if (k == "--corrupt") {
        a.corrupt = true;
      } else {
        usage("unknown argument " + k);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + k);
    }
  }
  if (a.seconds <= 0) usage("--seconds must be positive");

  pb::WorkloadFn fn = nullptr;
  if (a.workload == "stream") fn = pb::run_stream;
  if (a.workload == "build") fn = pb::run_build;
  if (a.workload == "serve") fn = pb::run_serve;
  if (fn == nullptr) usage("unknown workload '" + a.workload + "'");

  try {
    pb::Report rep(a);
    fn(rep);
    if (a.trace) {
      rep.tracer().write_json(a.out_dir + "/spans-" + a.workload + "-" +
                              std::to_string(a.seed) + ".json");
    }
    return rep.finish();
  } catch (const std::exception& e) {
    std::cerr << "udbench: " << a.workload << ": " << e.what() << "\n";
    return 1;
  }
}
