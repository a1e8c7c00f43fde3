// monitor_stream: in-process monitor::StreamMonitor::Run, full-boundary
// policy, on multi-stage cat/grep/cut/sort/uniq pipelines over seeded CSV
// data in an fs::FileSystem. The only workload that runs src/monitor,
// src/exec and src/fs and steps the boundary DFAs line by line.
#include <time.h>

#include <cstdio>
#include <memory>

#include "bench.h"
#include "corpus.h"
#include "fs/filesystem.h"
#include "monitor/stream_monitor.h"
#include "syntax/parser.h"

namespace perfbench {

namespace {

constexpr int kInputs = 100;
constexpr int kLinesPerInput = 1000;  // 100k lines in all.

struct MonitorSetup {
  std::vector<MonitorCase> cases;
  std::unique_ptr<sash::fs::FileSystem> fs;
  std::vector<sash::syntax::ParseOutput> programs;
  std::vector<sash::monitor::InterpResult> unmonitored;  // The clean-data reference.
  std::vector<size_t> order;                              // Seeded visiting order.
};

sash::monitor::StreamMonitor FullMonitor() {
  sash::monitor::MonitorPolicy policy;
  policy.monitor_all_boundaries = true;
  return sash::monitor::StreamMonitor(sash::rtypes::TypeLibrary::Default(), policy);
}

bool SetUp(const Options& o, MonitorSetup* s, Result* result) {
  *s = MonitorSetup{};
  s->cases = GenerateMonitorCases(o.seed, kInputs, kLinesPerInput);
  s->fs = std::make_unique<sash::fs::FileSystem>();
  s->fs->MakeDir("/data", true);
  for (const MonitorCase& c : s->cases) {
    if (!s->fs->WriteFile(c.path, c.data).ok()) {
      result->Wrong("cannot write " + c.path + " into the in-memory file system");
      return false;
    }
    s->programs.push_back(sash::syntax::Parse(c.pipeline));
    if (!s->programs.back().ok()) {
      result->Wrong("monitor pipeline does not parse: " + c.pipeline);
      return false;
    }
    sash::monitor::Interpreter interp(s->fs.get(), sash::monitor::InterpOptions{});
    s->unmonitored.push_back(interp.Run(s->programs.back().program));
  }
  Rng rng(o.seed, 3, 0);
  for (size_t i = 0; i < s->cases.size(); ++i) {
    s->order.push_back(i);
  }
  for (size_t i = s->order.size(); i > 1; --i) {
    std::swap(s->order[i - 1], s->order[static_cast<size_t>(rng.Range(0, static_cast<int>(i) - 1))]);
  }
  return true;
}

// A planted line must be caught at its boundary; on clean data the
// monitored output must equal the unmonitored output.
void Check(const MonitorSetup& s, size_t i, const sash::monitor::MonitoredRun& run,
           Result* result) {
  const MonitorCase& c = s.cases[i];
  if (c.planted) {
    if (!run.violation || run.event.boundary != c.boundary || run.event.line != c.violating_line) {
      result->FailOp(c.path + ": planted line '" + c.violating_line + "' not caught at boundary " +
                     std::to_string(c.boundary) + " of '" + c.pipeline + "'");
    }
    return;
  }
  const sash::monitor::InterpResult& ref = s.unmonitored[i];
  if (run.violation || run.result.out != ref.out || run.result.exit_code != ref.exit_code) {
    result->FailOp(c.path + ": monitored output differs from unmonitored on clean data");
  }
}

double ThreadCpuMs() {
  timespec ts {};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

// Latency is the time of one pass over every pipeline. Run times cluster
// by pipeline template, and the median of single runs would jump between
// clusters from one seed to the next.
void Measure(const Options& o, const MonitorSetup& s, Result* result) {
  const sash::monitor::StreamMonitor monitor = FullMonitor();
  WindowLog log;
  double pass_ms = 0;
  double pass_cpu_ms = 0;
  const int64_t deadline = NowNs() + static_cast<int64_t>(o.seconds) * 1000000000;
  for (size_t op = 0; op == 0 || op % s.order.size() != 0 || NowNs() < deadline; ++op) {
    const size_t i = s.order[op % s.order.size()];
    const double cpu0 = ThreadCpuMs();
    const int64_t t0 = NowNs();
    sash::monitor::MonitoredRun run =
        monitor.Run(s.programs[i].program, s.fs.get(), sash::monitor::InterpOptions{});
    pass_ms += static_cast<double>(NowNs() - t0) / 1e6;
    pass_cpu_ms += ThreadCpuMs() - cpu0;
    if ((op + 1) % s.order.size() == 0) {
      log.Add(pass_ms, static_cast<double>(s.order.size()), pass_cpu_ms);
      pass_ms = 0;
      pass_cpu_ms = 0;
    }
    if (log.Due()) {
      log.Close();
    }
    ++result->attempted;
    Check(s, i, run, result);
  }
  log.Close();
  SetEndToEnd(result, log.totals());
  result->Set("peak_rss_mb", PeakRssMb("self"), "MB");
}

// The traced pass: each monitored run, then the same pipeline unmonitored.
size_t TracedPass(const MonitorSetup& s, size_t ops, SpanLog* log, Result* result) {
  const sash::monitor::StreamMonitor monitor = FullMonitor();
  size_t lines_checked = 0;
  Scope root(log, "monitor_stream");
  for (size_t op = 0; op < ops; ++op) {
    const size_t i = s.order[op % s.order.size()];
    sash::monitor::MonitoredRun run;
    {
      Scope span(log, "monitor.run");
      run = monitor.Run(s.programs[i].program, s.fs.get(), sash::monitor::InterpOptions{});
    }
    ++result->attempted;
    Check(s, i, run, result);
    lines_checked += run.lines_checked;
    Scope span(log, "monitor.interp");
    sash::monitor::Interpreter interp(s.fs.get(), sash::monitor::InterpOptions{});
    interp.Run(s.programs[i].program);
  }
  return lines_checked;
}

void Trace(const Options& o, const MonitorSetup& s, Result* result) {
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(o.seconds) * 500000000;
  size_t ops = 0;
  while (NowNs() < deadline) {
    TracedPass(s, s.order.size(), nullptr, result);
    ops += s.order.size();
  }
  const double untraced_s = Seconds(NowNs() - start);

  SpanLog log(0);
  const int64_t traced_start = NowNs();
  const size_t lines_checked = TracedPass(s, ops, &log, result);
  const double traced_s = Seconds(NowNs() - traced_start);

  const std::vector<const SpanLog*> logs = {&log};
  const std::vector<double> run_us = SpanMicros(logs, "monitor.run");
  const std::vector<double> interp_us = SpanMicros(logs, "monitor.interp");
  result->Set("monitor.run_us", Median(run_us), "us");
  result->Set("monitor.interp_us", Median(interp_us), "us");
  result->Set("monitor.overhead_x", Sum(run_us) / Sum(interp_us), "x");
  result->Set("monitor.lines_checked",
              static_cast<double>(lines_checked) / static_cast<double>(ops), "count");
  result->Set("monitor.ns_per_line", Sum(run_us) * 1e3 / static_cast<double>(lines_checked),
              "ns");
  std::fprintf(stderr, "monitor_stream traced: %zu runs, %zu boundary lines checked\n", ops,
               lines_checked);
  FinishTrace(o, logs, untraced_s, traced_s, result);
}

}  // namespace

Result RunMonitorStream(const Options& options) {
  Result result;
  MonitorSetup setup;
  if (!TimedSetup(&result, 9, [&](int) { return SetUp(options, &setup, &result); })) {
    return result;
  }
  if (options.trace) {
    Trace(options, setup, &result);
  } else {
    Measure(options, setup, &result);
  }
  return result;
}

}  // namespace perfbench
