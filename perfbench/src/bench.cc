#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "corpus.h"
#include "json.h"

namespace perfbench {

void Result::Wrong(const std::string& what) {
  correct = false;
  if (printed_ < 10) {
    std::fprintf(stderr, "WRONG: %s\n", what.c_str());
  } else if (printed_ == 10) {
    std::fprintf(stderr, "WRONG: (further wrong outputs not printed)\n");
  }
  ++printed_;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double Sum(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) {
    sum += v;
  }
  return sum;
}

void WindowLog::Add(double latency_ms, double ops, double cpu_ms) {
  totals_.latency_ms.push_back(latency_ms);
  totals_.ops += ops;
  totals_.seconds += latency_ms / 1e3;
  totals_.cpu_ms += cpu_ms;
}

namespace {

double ReferenceWorkMs() {
  const int64_t start = NowNs();
  std::string doc = "[";
  for (const Script& s : GenerateScripts(0, 192, ScriptMix{})) {
    doc += doc.size() > 1 ? ",{\"name\":" : "{\"name\":";
    AppendJsonString(&doc, s.name);
    doc += ",\"text\":";
    AppendJsonString(&doc, s.text);
    doc += "}";
  }
  doc += "]";
  const std::optional<Json> parsed = ParseJson(doc);
  static volatile size_t sink = 0;
  sink = sink + NormalizedReport(*parsed).size();
  return static_cast<double>(NowNs() - start) / 1e6;
}

}  // namespace

double ReferenceMs() {
  const cpu_set_t cpus = Affinity();
  double sum_ms = 0;
  int count = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &cpus)) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      SetAffinity(one);
      sum_ms += ReferenceWorkMs();
      ++count;
    }
  }
  SetAffinity(cpus);
  return sum_ms / count;
}

double ScaledSetupSeconds(double seconds) {
  std::vector<double> reference_ms;
  for (int i = 0; i < 5; ++i) {
    reference_ms.push_back(ReferenceMs());
  }
  return seconds * kReferenceMs / Median(reference_ms);
}

void WindowLog::Close(double cpu_ms) {
  totals_.cpu_ms += cpu_ms;
  totals_.reference_ms.push_back(ReferenceMs());
  start_ = NowNs();
}

void SetEndToEnd(Result* result, const Totals& t) {
  if (t.ops == 0 || t.reference_ms.empty()) {
    result->Wrong("no operation completed");
    return;
  }
  const double scale = kReferenceMs / Median(t.reference_ms);
  const double p50 = Median(t.latency_ms);
  result->Set("latency_p50_ms", p50 * scale, "ms");
  result->Set("files_per_s", t.ops / t.seconds / scale, "1/s");
  result->Set("cpu_ms_per_op", t.cpu_ms / t.ops * scale, "ms");

  const double p99 = Percentile(t.latency_ms, 0.99);
  const auto beyond =
      std::count_if(t.latency_ms.begin(), t.latency_ms.end(), [&](double v) { return v > p99; });
  std::fprintf(stderr,
               "host: reference work took %.3f ms (median of %zu windows), scale %.4f\n"
               "unscaled: %zu samples, p50 %.4f ms, p99 %.4f ms (%lld beyond it), %.2f ops/s, "
               "%.4f cpu ms/op\n",
               Median(t.reference_ms), t.reference_ms.size(), scale, t.latency_ms.size(), p50,
               p99, static_cast<long long>(beyond), t.ops / t.seconds, t.cpu_ms / t.ops);
}

void FinishTrace(const Options& options, const std::vector<const SpanLog*>& logs,
                 double untraced_wall_s, double traced_wall_s, Result* result) {
  double root_ms = 0;
  std::vector<LayerRow> rows = SelfTimeTable(logs, &root_ms);
  double unattributed_ms = 0;
  std::fprintf(stderr, "-- self time by layer (traced wall %.1f ms summed over threads) --\n",
               root_ms);
  for (const LayerRow& row : rows) {
    if (row.layer == "unattributed") {
      unattributed_ms = row.self_ms;
    }
    std::fprintf(stderr, "  %-14s %12.2f ms %6.2f%%  (%lld spans)\n", row.layer.c_str(),
                 row.self_ms, root_ms > 0 ? 100.0 * row.self_ms / root_ms : 0.0,
                 static_cast<long long>(row.spans));
  }
  const double unattributed = root_ms > 0 ? unattributed_ms / root_ms : 1.0;
  if (unattributed > 0.10) {
    std::fprintf(stderr, "warning: layers cover only %.1f%% of the traced wall time\n",
                 100.0 * (1.0 - unattributed));
  }
  result->Set("obs.unattributed_ratio", unattributed, "ratio");
  result->Set("obs.trace_overhead_ratio",
              untraced_wall_s > 0 ? traced_wall_s / untraced_wall_s : 0.0, "ratio");
  std::fprintf(stderr, "trace overhead: traced %.3f s / untraced %.3f s\n", traced_wall_s,
               untraced_wall_s);
  const std::string path = options.out + "/spans-" + options.workload + "-seed" +
                           std::to_string(options.seed) + ".jsonl";
  if (!WriteSpans(logs, path)) {
    result->Wrong("cannot write " + path);
  }
}

bool MakeDirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  return std::filesystem::is_directory(path, ec);
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  return static_cast<bool>(out);
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

}  // namespace perfbench
