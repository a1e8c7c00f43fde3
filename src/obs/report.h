// The machine-readable bench report: schema "sash-bench-v1". Each bench
// binary emits one BENCH_<name>.json so the perf trajectory can be tracked
// run over run, and a schema validator (pure C++, used from ctest) keeps the
// emitters honest.
#ifndef SASH_OBS_REPORT_H_
#define SASH_OBS_REPORT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"
#include "obs/obs.h"

namespace sash::obs {

inline constexpr char kBenchSchema[] = "sash-bench-v1";

// One timing-loop result within a bench binary.
struct BenchRun {
  std::string name;
  int64_t iterations = 0;
  double real_time_ns = 0;  // Wall time per iteration.
  double cpu_time_ns = 0;
};

// Serializes {"schema","bench","runs":[...],"cache":{"hits","misses"},
// "peak_rss_kb":N,"metrics":{"counters":{},"gauges":{...},"histograms":{}}}.
// `metrics` holds the bench's named results (counts, peaks, table cells
// worth keeping); each lands under metrics.gauges; the cache object mirrors
// its "cache.hits" / "cache.misses" entries (zero when absent).
// `peak_rss_kb` is the process peak resident set in KiB (0 when unknown).
std::string BenchReportJson(std::string_view bench_name, const std::vector<BenchRun>& runs,
                            const NamedValues& metrics, int64_t peak_rss_kb = 0);

// Validates a parsed bench report against the schema; returns human-readable
// problems, empty when the document conforms.
std::vector<std::string> ValidateBenchReport(const JsonValue& doc);

}  // namespace sash::obs

#endif  // SASH_OBS_REPORT_H_
