// perfbench: the repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//   perfbench --smoke
//
// Workloads: gate_small_tcp, sweep_bulk_tcp, program_churn,
// micromag_validate (see each source file for what it stresses and why).
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones;
// either way the last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --smoke runs every workload briefly in both modes and exits non-zero
// unless each passes its oracle.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.h"

namespace {

using perfbench::Result;
using perfbench::RunConfig;

struct Workload {
  const char* name;
  Result (*run)(const RunConfig&);
};

constexpr Workload kWorkloads[] = {
    {"gate_small_tcp", perfbench::run_gate_small_tcp},
    {"sweep_bulk_tcp", perfbench::run_sweep_bulk_tcp},
    {"program_churn", perfbench::run_program_churn},
    {"micromag_validate", perfbench::run_micromag_validate},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1\n       perfbench "
               "--smoke\nworkloads:",
               why);
  for (const auto& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int smoke() {
  int failures = 0;
  for (const auto& w : kWorkloads) {
    for (const bool traced : {false, true}) {
      RunConfig config;
      config.seed = 7;
      config.seconds = 0.5;
      config.traced = traced;
      config.setup_reps = 1;
      const Result r = w.run(config);
      perfbench::print_result(w.name, config, r);
      const bool ok = r.correct && r.failed == 0 && r.attempted > 0;
      std::printf("smoke %s trace=%d: %s\n\n", w.name, traced ? 1 : 0,
                  ok ? "ok" : "FAILED");
      if (!ok) ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  RunConfig config;
  bool have_seed = false, have_seconds = false, have_trace = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--smoke") return smoke();
      if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
      const std::string value = argv[++i];
      if (arg == "--workload") {
        workload = value;
      } else if (arg == "--seed") {
        config.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        config.seconds = std::stod(value);
        have_seconds = config.seconds > 0.0;
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        config.traced = value == "1";
        have_trace = true;
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds (> 0) and --trace are required");
  }
  for (const auto& w : kWorkloads) {
    if (workload != w.name) continue;
    try {
      perfbench::print_result(w.name, config, w.run(config));
      return 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s aborted: %s\n", w.name, e.what());
      return 1;
    }
  }
  return usage(("unknown workload '" + workload + "'").c_str());
}
