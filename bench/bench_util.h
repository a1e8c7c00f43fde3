// Shared helpers for the experiment benchmarks: each bench binary prints the
// table/figure it regenerates (the paper-facing result), then runs
// google-benchmark timing loops for the machinery involved. On top of the
// human output, every bench writes a machine-readable report
// (bench/out/BENCH_<name>.json, schema "sash-bench-v1") with the timing-loop
// results and whatever metrics the bench pushed into Metrics().
#ifndef SASH_BENCH_BENCH_UTIL_H_
#define SASH_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "obs/procstat.h"
#include "obs/report.h"

namespace sash::bench {

// Prints a fixed-width table; first row is the header.
inline void PrintTable(const std::string& title,
                       const std::vector<std::vector<std::string>>& rows) {
  std::printf("\n=== %s ===\n", title.c_str());
  if (rows.empty()) {
    return;
  }
  std::vector<size_t> widths(rows[0].size(), 0);
  for (const auto& row : rows) {
    for (size_t i = 0; i < row.size() && i < widths.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  for (size_t r = 0; r < rows.size(); ++r) {
    std::string line;
    for (size_t i = 0; i < rows[r].size(); ++i) {
      std::string cell = rows[r][i];
      cell.resize(widths[i], ' ');
      line += cell + "  ";
    }
    std::printf("%s\n", line.c_str());
    if (r == 0) {
      std::printf("%s\n", std::string(line.size(), '-').c_str());
    }
  }
  std::printf("\n");
}

// The named results the bench report embeds; benches record experiment-level
// results into it (usually via Metric()) so they land in the JSON next to the
// timings.
inline obs::NamedValues& Metrics() {
  static obs::NamedValues metrics;
  return metrics;
}

// Records one named experiment result (a count, a peak, a table cell worth
// keeping) in the bench report.
inline void Metric(std::string_view name, int64_t value) {
  Metrics().insert_or_assign(std::string(name), value);
}

// Cache-effectiveness counts. The report schema surfaces these as the
// top-level "cache":{"hits","misses"} object (schema sash-bench-v1); benches
// that exercise the incremental cache add to them.
inline void CacheHit(int64_t n = 1) { Metrics()["cache.hits"] += n; }
inline void CacheMiss(int64_t n = 1) { Metrics()["cache.misses"] += n; }

// Console reporter that also collects per-run results for the JSON report.
// Aggregate rows (mean/median/stddev) are skipped — raw iterations only.
class RecordingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration) {
        continue;
      }
      obs::BenchRun out;
      out.name = run.benchmark_name();
      out.iterations = run.iterations;
      if (run.iterations > 0) {
        out.real_time_ns = run.real_accumulated_time * 1e9 /
                           static_cast<double>(run.iterations);
        out.cpu_time_ns =
            run.cpu_accumulated_time * 1e9 / static_cast<double>(run.iterations);
      }
      collected_.push_back(std::move(out));
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<obs::BenchRun>& collected() const { return collected_; }

 private:
  std::vector<obs::BenchRun> collected_;
};

// Bench name from argv[0]: basename, "bench_" prefix stripped.
inline std::string BenchNameFromArgv0(const char* argv0) {
  std::string name = std::filesystem::path(argv0).filename().string();
  if (name.rfind("bench_", 0) == 0) {
    name = name.substr(6);
  }
  return name;
}

// Writes BENCH_<name>.json into bench/out/ next to the cwd (override the
// directory with SASH_BENCH_OUT). Failure to write is a warning, not an
// error — CI without a writable tree still gets the human output.
inline void WriteBenchReport(const std::string& bench_name,
                             const std::vector<obs::BenchRun>& runs) {
  const char* env = std::getenv("SASH_BENCH_OUT");
  std::filesystem::path dir = env != nullptr ? env : "bench/out";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  std::filesystem::path path = dir / ("BENCH_" + bench_name + ".json");
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.string().c_str());
    return;
  }
  out << obs::BenchReportJson(bench_name, runs, Metrics(), obs::PeakRssKb()) << '\n';
  std::printf("wrote %s\n", path.string().c_str());
}

}  // namespace sash::bench

// Standard main: print the experiment's table, run timing benchmarks, then
// emit the machine-readable report.
#define SASH_BENCH_MAIN(print_fn)                                          \
  int main(int argc, char** argv) {                                        \
    print_fn();                                                            \
    benchmark::Initialize(&argc, argv);                                    \
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) {              \
      return 1;                                                            \
    }                                                                      \
    sash::bench::RecordingReporter reporter;                               \
    benchmark::RunSpecifiedBenchmarks(&reporter);                          \
    benchmark::Shutdown();                                                 \
    sash::bench::WriteBenchReport(sash::bench::BenchNameFromArgv0(argv[0]),\
                                  reporter.collected());                   \
    return 0;                                                              \
  }

#endif  // SASH_BENCH_BENCH_UTIL_H_
