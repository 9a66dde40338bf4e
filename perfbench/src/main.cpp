// evbench: one run of one evord benchmark workload.
//
//   evbench --workload warm_pairs|cold_traces|anytime_large --seed N
//           --seconds S --trace 0|1 [--smoke] [--corrupt-reference]
//   evbench --emit-cold-universe FILE
//
// Prints report lines starting with '#', then one JSON result line.
// Exits 1 when any reply was wrong or failed, 2 on a usage or set-up
// error (without a result line).
#include <signal.h>

#include <cstdio>
#include <exception>
#include <string>

#include "harness.hpp"
#include "inputs.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  evbench::Config config;
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
        return argv[++i];
      };
      if (arg == "--workload") {
        config.workload = value();
        have_workload = true;
      } else if (arg == "--seed") {
        config.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        config.seconds = std::stod(value());
      } else if (arg == "--trace") {
        config.trace = value() != "0";
      } else if (arg == "--smoke") {
        config.smoke = true;
      } else if (arg == "--corrupt-reference") {
        config.corrupt_reference = true;
      } else if (arg == "--emit-cold-universe") {
        // 8192 traces: the largest pool (60 s) uses under a third of them.
        evbench::emit_cold_universe(value(), 8192);
        return 0;
      } else {
        throw std::invalid_argument("unknown argument: " + arg);
      }
    }
    if (!have_workload || config.seconds <= 0.0) {
      throw std::invalid_argument("--workload and a positive --seconds are required");
    }
    const evbench::Result result = evbench::run_workload(config);
    evbench::print_result(result);
    return result.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "evbench: %s\n", e.what());
    return 2;
  }
}
