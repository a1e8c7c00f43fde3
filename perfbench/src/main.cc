// sash_perfbench: the program behind perfbench/run.py. One process runs one
// workload for one seed and prints, as its last stdout line, one JSON object
// with the keys correct, attempted, failed and metrics.
//
//   sash_perfbench --workload cli_warm --seed 7 --seconds 10 --trace 0
//       --sash .bench_build/sash/tools/sash --work .bench_build/work/x
//       --out .bench_build/out
//
// --trace 0 measures the end-to-end metrics with no spans recorded;
// --trace 1 makes the traced run and reports the per-layer metrics it
// measured.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench.h"

namespace perfbench {
namespace {

int UsageError(const char* why) {
  std::fprintf(stderr,
               "sash_perfbench: %s\n"
               "usage: sash_perfbench --workload cli_warm|batch_cold|serve_mixed|monitor_stream\n"
               "         --seed N --seconds S --trace 0|1 --sash PATH --work DIR --out DIR\n",
               why);
  return 2;
}

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  std::string trace;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      trace = value;
    } else if (flag == "--sash") {
      options.sash = value;
    } else if (flag == "--work") {
      options.work = value;
    } else if (flag == "--out") {
      options.out = value;
    } else {
      return UsageError(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1 || (trace != "0" && trace != "1") || options.seconds < 1 ||
      options.sash.empty() || options.work.empty() || options.out.empty()) {
    return UsageError("missing or malformed arguments");
  }
  if (access(options.sash.c_str(), X_OK) != 0) {
    return UsageError(("sash binary not executable: " + options.sash).c_str());
  }
  options.trace = trace == "1";
  options.nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));

  Result (*run)(const Options&) = nullptr;
  if (options.workload == "cli_warm") {
    run = RunCliWarm;
  } else if (options.workload == "batch_cold") {
    run = RunBatchCold;
    // Two workers plus the committer leave room on a 4-vCPU guest for the
    // benchmark itself; more would measure the scheduler.
    options.cpus = 2;
  } else if (options.workload == "serve_mixed") {
    run = RunServeMixed;
  } else if (options.workload == "monitor_stream") {
    run = RunMonitorStream;
  } else {
    return UsageError(("unknown workload " + options.workload).c_str());
  }

  // The run, and every process it starts, stays on the CPUs the workload
  // keeps busy: a process woken on another vCPU waits for that vCPU, and on
  // a shared host how long follows the other guests.
  options.all_cpus = Affinity();
  options.cpus = std::min(options.cpus, CPU_COUNT(&options.all_cpus));
  SetAffinity(LastCpusOf(options.all_cpus, options.cpus));

  RemoveTree(options.work);
  if (!MakeDirs(options.work) || !MakeDirs(options.out)) {
    return UsageError("cannot create the work or output directory");
  }
  Result result = run(options);
  RemoveTree(options.work);

  // Names and units are checked against BENCHMARK.json by run.py, which
  // also fills in the per-layer metrics of layers this workload does not
  // cross.
  std::fprintf(stderr, "== %s seed %llu (%s) ==\n", options.workload.c_str(),
               static_cast<unsigned long long>(options.seed),
               options.trace ? "traced, per-layer metrics" : "untraced, end-to-end metrics");
  std::string metrics;
  for (const auto& [name, metric] : result.metrics) {
    std::fprintf(stderr, "  %-32s %14.4f %s\n", name.c_str(), metric.value, metric.unit.c_str());
    metrics += std::string(metrics.empty() ? "" : ", ") + "\"" + name + "\": {\"value\": " +
               FormatNumber(metric.value) + ", \"unit\": \"" + metric.unit + "\"}";
  }
  if (result.attempted < 1) {
    result.Wrong("no operation was attempted");
  }
  std::fprintf(stderr, "  attempted %lld, failed %lld, correct %s\n",
               static_cast<long long>(result.attempted), static_cast<long long>(result.failed),
               result.correct ? "yes" : "NO");
  std::fflush(stderr);
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
              result.correct ? "true" : "false", static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
