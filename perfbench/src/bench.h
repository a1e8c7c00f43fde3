// Shared pieces of sash_perfbench: run options, the result every
// workload fills in, and the statistics they report.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "proc.h"
#include "spans.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string sash;  // The sash CLI binary.
  std::string work;  // Scratch directory for this run (removed afterwards).
  std::string out;   // Where span files are written.
  int nproc = 1;
  cpu_set_t all_cpus{};  // The affinity the run started with.
  int cpus = 1;          // How many of them the workload is pinned to.
};

struct Metric {
  double value = 0;
  std::string unit;
};

struct Result {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, Metric> metrics;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  // Records a wrong output; the first few are printed.
  void Wrong(const std::string& what);
  // One operation failed or produced a wrong output.
  void FailOp(const std::string& what) {
    ++failed;
    Wrong(what);
  }

 private:
  int printed_ = 0;
};

// Linear interpolation between closest ranks; 0 for an empty sample.
double Percentile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }
double Sum(const std::vector<double>& values);
double Seconds(int64_t ns);

// The host these runs share slows all of it by up to half for minutes at a
// time, and memory-bound work by up to 3x for seconds at a time. So each
// workload is pinned to as many CPUs as it keeps busy, and every kWindowNs
// of a measured run (on batch_cold, after every batch) and after each
// set-up the benchmark times a fixed piece of its own work on those CPUs,
// ReferenceMs(). Every time is scaled by kReferenceMs over the run's median
// reference time: the figures read as on a host where the reference takes
// kReferenceMs.
constexpr int64_t kWindowNs = 200000000;
constexpr double kReferenceMs = 5.0;

// Generates a fixed corpus of 192 scripts and round-trips it through the
// benchmark's JSON reader, once on each CPU the calling thread may run on;
// returns the mean wall time in ms.
double ReferenceMs();

// What one measured run did.
struct Totals {
  std::vector<double> latency_ms;    // One sample per operation.
  double ops = 0;                    // Operations completed (files on batch_cold).
  double seconds = 0;                // Time the operations took, back to back.
  double cpu_ms = 0;                 // CPU time of the process(es) doing the work.
  std::vector<double> reference_ms;  // ReferenceMs() after every window.
};

// A measured run, filled one operation at a time and cut into windows.
class WindowLog {
 public:
  WindowLog() : start_(NowNs()) {}
  // One operation of `ops` units took `latency_ms` and `cpu_ms` of CPU.
  void Add(double latency_ms, double ops = 1, double cpu_ms = 0);
  // Whether the current window has lasted kWindowNs.
  bool Due() const { return NowNs() - start_ >= kWindowNs; }
  // Ends the current window: adds `cpu_ms` of CPU time and times the host
  // reference.
  void Close(double cpu_ms = 0);
  const Totals& totals() const { return totals_; }

 private:
  int64_t start_;
  Totals totals_;
};

// Sets latency_p50_ms, files_per_s and cpu_ms_per_op, scaled by the host
// reference, and prints them unscaled with the p99 and sample counts.
void SetEndToEnd(Result* result, const Totals& totals);

// Times one set-up that took `seconds`, scaled by the host reference taken
// right after it.
double ScaledSetupSeconds(double seconds);

// Runs `once` (one complete set-up, timed) `reps` times and sets setup_s to
// the median of the scaled times. Returns false when any set-up failed.
template <typename F>
bool TimedSetup(Result* result, int reps, F&& once) {
  std::vector<double> times;
  for (int rep = 0; rep < reps; ++rep) {
    const int64_t start = NowNs();
    if (!once(rep)) {
      return false;
    }
    times.push_back(ScaledSetupSeconds(Seconds(NowNs() - start)));
  }
  result->Set("setup_s", Median(times), "s");
  return true;
}

// Traced-run bookkeeping shared by every workload: prints the self-time
// table, writes the spans, and sets obs.trace_overhead_ratio and
// obs.unattributed_ratio.
void FinishTrace(const Options& options, const std::vector<const SpanLog*>& logs,
                 double untraced_wall_s, double traced_wall_s, Result* result);

// Filesystem helpers (paths relative to the checkout).
bool MakeDirs(const std::string& path);
void RemoveTree(const std::string& path);
bool WriteFile(const std::string& path, const std::string& content);

Result RunCliWarm(const Options& options);
Result RunBatchCold(const Options& options);
Result RunServeMixed(const Options& options);
Result RunMonitorStream(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
