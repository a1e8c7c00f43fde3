// Experiment T6 (§4 gradual trade-off): "the cost of maintaining safety
// without annotations is monitoring overhead". Run the same pipeline with
// monitoring off / gradual (untyped-adjacent only) / full, over growing
// inputs, and report the overhead factor and throughput. The unmonitored
// 10k-line cost per line and the full-monitor overhead on the 100-line row
// (where the per-run type check, not the line scan, dominates) and on the
// 1,000-line row (where the boundary line scan shows) are gated in
// bench/baseline.json.
#include <chrono>

#include "bench_util.h"
#include "monitor/stream_monitor.h"
#include "syntax/parser.h"

namespace {

std::string InputData(int lines) {
  std::string data;
  for (int i = 0; i < lines; ++i) {
    data += std::to_string((i * 7919) % 100000) + "\n";
  }
  return data;
}

sash::fs::FileSystem MakeInput(int lines) {
  sash::fs::FileSystem fs;
  fs.WriteFile("/nums", InputData(lines));
  return fs;
}

std::string MegabytesPerSecond(size_t bytes, double us) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", static_cast<double>(bytes) / us);
  return buf;
}

double TimedRun(const sash::syntax::Program& program, int lines, bool monitored, bool all,
                size_t* checked) {
  sash::fs::FileSystem fs = MakeInput(lines);
  auto begin = std::chrono::steady_clock::now();
  if (!monitored) {
    sash::monitor::Interpreter interp(&fs, sash::monitor::InterpOptions{});
    interp.Run(program);
    *checked = 0;
  } else {
    sash::monitor::MonitorPolicy policy;
    policy.monitor_all_boundaries = all;
    sash::monitor::StreamMonitor monitor(sash::rtypes::TypeLibrary::Default(), policy);
    sash::monitor::MonitoredRun run = monitor.Run(program, &fs, sash::monitor::InterpOptions{});
    *checked = run.lines_checked;
  }
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(end - begin).count();
}

void PrintResult() {
  sash::syntax::ParseOutput parsed = sash::syntax::Parse("cat /nums | sort -n | uniq");
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"input lines", "input bytes", "unmonitored us", "unmonitored MB/s",
                  "full-monitor us", "full-monitor MB/s", "overhead", "lines checked"});
  for (int lines : {100, 1000, 10000}) {
    size_t checked_off = 0;
    size_t checked_all = 0;
    // Median-ish of three runs to stabilize.
    double off = 1e18;
    double all = 1e18;
    for (int rep = 0; rep < 3; ++rep) {
      off = std::min(off, TimedRun(parsed.program, lines, false, false, &checked_off));
      all = std::min(all, TimedRun(parsed.program, lines, true, true, &checked_all));
    }
    char overhead[16];
    std::snprintf(overhead, sizeof(overhead), "%.2fx", all / off);
    const size_t bytes = InputData(lines).size();
    rows.push_back({std::to_string(lines), std::to_string(bytes),
                    std::to_string(static_cast<long>(off)), MegabytesPerSecond(bytes, off),
                    std::to_string(static_cast<long>(all)), MegabytesPerSecond(bytes, all),
                    overhead, std::to_string(checked_all)});
    if (lines == 100 || lines == 1000) {
      sash::bench::Metric("t6.full_overhead_x100_" + std::to_string(lines),
                          static_cast<int64_t>(all / off * 100.0));
    }
    if (lines == 10000) {
      sash::bench::Metric("t6.unmonitored_ns_per_line_10k",
                          static_cast<int64_t>(off * 1000.0 / lines));
    }
  }
  sash::bench::PrintTable(
      "T6: runtime monitoring overhead (expected: modest constant factor, linear in lines)",
      rows);

  // Gradual monitoring checks nothing on a fully typed pipeline.
  sash::fs::FileSystem fs = MakeInput(1000);
  sash::monitor::StreamMonitor gradual;
  sash::monitor::MonitoredRun run =
      gradual.Run(parsed.program, &fs, sash::monitor::InterpOptions{});
  std::printf("gradual policy on a fully-typed pipeline: %zu boundaries monitored, "
              "%zu lines checked (typed code pays nothing)\n\n",
              run.boundaries_monitored, run.lines_checked);
}

void BM_Unmonitored(benchmark::State& state) {
  sash::syntax::ParseOutput parsed = sash::syntax::Parse("cat /nums | sort -n | uniq");
  for (auto _ : state) {
    sash::fs::FileSystem fs = MakeInput(static_cast<int>(state.range(0)));
    sash::monitor::Interpreter interp(&fs, sash::monitor::InterpOptions{});
    benchmark::DoNotOptimize(interp.Run(parsed.program).exit_code);
  }
  state.SetLabel("lines=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_Unmonitored)->Arg(100)->Arg(1000)->Unit(benchmark::kMillisecond);

void BM_FullyMonitored(benchmark::State& state) {
  sash::syntax::ParseOutput parsed = sash::syntax::Parse("cat /nums | sort -n | uniq");
  sash::monitor::MonitorPolicy policy;
  policy.monitor_all_boundaries = true;
  sash::monitor::StreamMonitor monitor(sash::rtypes::TypeLibrary::Default(), policy);
  for (auto _ : state) {
    sash::fs::FileSystem fs = MakeInput(static_cast<int>(state.range(0)));
    benchmark::DoNotOptimize(
        monitor.Run(parsed.program, &fs, sash::monitor::InterpOptions{}).lines_checked);
  }
  state.SetLabel("lines=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_FullyMonitored)->Arg(100)->Arg(1000)->Unit(benchmark::kMillisecond);

}  // namespace

SASH_BENCH_MAIN(PrintResult)
