// Validates bench reports (BENCH_*.json, schema "sash-bench-v1"), event
// journals (schema "sash-events-v1"), and, optionally, compares bench
// reports against a committed performance baseline.
//
//   sash_check_bench_json [--selftest] [--baseline FILE] [--journal FILE]
//                         [dir-or-file ...]
//
// --selftest validates a known-good and a known-bad document built in
// memory, so ctest can exercise the schema without benches having run.
// Directory arguments are scanned for BENCH_*.json; missing directories are
// fine (benches simply have not run yet).
//
// --journal FILE validates a JSONL event journal written by
// `sash analyze --journal` or `sash serve --journal` against sash-events-v1.
//
// --baseline FILE loads a "sash-bench-baseline-v1" document:
//   {"schema":"sash-bench-baseline-v1","tolerance":1.5,
//    "benches":{"hotpath":{
//      "regress":{"hotpath.ns_per_script.full": 260000},  // fail if current
//                                                         // > value*tolerance
//      "min":{"hotpath.speedup_x100.full": 200}}}}        // fail if current
//                                                         // < value
// "regress" entries guard timing metrics against machine-relative slowdowns
// (the tolerance absorbs host variance); "min" entries are hard floors for
// machine-independent ratios and invariants. Metric names are looked up in
// the report's metrics gauges, then counters.
//
// Exit 0 when everything given validates, 1 on any schema violation, parse
// error, or baseline regression, 2 on usage errors.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "obs/journal.h"
#include "obs/json.h"
#include "obs/report.h"
#include "util/file.h"

namespace {

// The parsed --baseline document, when given.
std::optional<sash::obs::JsonValue> g_baseline;

// Finds `metric` in the report's metrics.gauges, then metrics.counters.
const sash::obs::JsonValue* FindMetric(const sash::obs::JsonValue& report,
                                       const std::string& metric) {
  const sash::obs::JsonValue* metrics = report.Find("metrics");
  if (metrics == nullptr) {
    return nullptr;
  }
  for (const char* section : {"gauges", "counters"}) {
    if (const sash::obs::JsonValue* sec = metrics->Find(section)) {
      if (const sash::obs::JsonValue* v = sec->Find(metric); v != nullptr && v->is_number()) {
        return v;
      }
    }
  }
  return nullptr;
}

// Compares one validated report against its baseline entry (if any).
bool CheckBaseline(const std::string& label, const sash::obs::JsonValue& report) {
  if (!g_baseline.has_value()) {
    return true;
  }
  const sash::obs::JsonValue* bench = report.Find("bench");
  if (bench == nullptr || !bench->is_string()) {
    return true;  // Schema validation already flagged this.
  }
  double tolerance = 1.5;
  if (const sash::obs::JsonValue* t = g_baseline->Find("tolerance"); t != nullptr && t->is_number()) {
    tolerance = t->number;
  }
  const sash::obs::JsonValue* benches = g_baseline->Find("benches");
  const sash::obs::JsonValue* entry =
      benches != nullptr ? benches->Find(bench->string) : nullptr;
  if (entry == nullptr) {
    return true;  // No baseline committed for this bench.
  }
  bool ok = true;
  if (const sash::obs::JsonValue* regress = entry->Find("regress")) {
    for (const auto& [metric, base] : regress->object) {
      const sash::obs::JsonValue* cur = FindMetric(report, metric);
      if (cur == nullptr) {
        std::fprintf(stderr, "%s: baseline metric '%s' missing from report\n", label.c_str(),
                     metric.c_str());
        ok = false;
        continue;
      }
      double limit = base.number * tolerance;
      if (cur->number > limit) {
        std::fprintf(stderr, "%s: REGRESSION %s = %.0f > %.0f (baseline %.0f x tolerance %.2f)\n",
                     label.c_str(), metric.c_str(), cur->number, limit, base.number, tolerance);
        ok = false;
      }
    }
  }
  if (const sash::obs::JsonValue* mins = entry->Find("min")) {
    for (const auto& [metric, base] : mins->object) {
      const sash::obs::JsonValue* cur = FindMetric(report, metric);
      if (cur == nullptr || cur->number < base.number) {
        std::fprintf(stderr, "%s: FLOOR VIOLATION %s = %s < required %.0f\n", label.c_str(),
                     metric.c_str(), cur == nullptr ? "absent" : std::to_string(cur->number).c_str(),
                     base.number);
        ok = false;
      }
    }
  }
  if (ok) {
    std::printf("%s: baseline ok (%s)\n", label.c_str(), bench->string.c_str());
  }
  return ok;
}

bool ValidateText(const std::string& label, const std::string& text) {
  std::optional<sash::obs::JsonValue> doc = sash::obs::JsonValue::Parse(text);
  if (!doc.has_value()) {
    std::fprintf(stderr, "%s: JSON parse error\n", label.c_str());
    return false;
  }
  std::vector<std::string> problems = sash::obs::ValidateBenchReport(*doc);
  for (const std::string& p : problems) {
    std::fprintf(stderr, "%s: %s\n", label.c_str(), p.c_str());
  }
  return problems.empty() && CheckBaseline(label, *doc);
}

bool ValidateFile(const std::filesystem::path& path) {
  std::string text;
  if (!sash::util::ReadFile(path.string(), &text)) {
    std::fprintf(stderr, "%s: cannot open\n", path.string().c_str());
    return false;
  }
  bool ok = ValidateText(path.string(), text);
  if (ok) {
    std::printf("%s: ok\n", path.string().c_str());
  }
  return ok;
}

// Validates one sash-events-v1 JSONL journal file.
bool ValidateJournalFile(const std::filesystem::path& path) {
  std::string text;
  if (!sash::util::ReadFile(path.string(), &text)) {
    std::fprintf(stderr, "%s: cannot open\n", path.string().c_str());
    return false;
  }
  std::vector<std::string> problems = sash::obs::EventJournal::ValidateJsonl(text);
  for (const std::string& p : problems) {
    std::fprintf(stderr, "%s: %s\n", path.string().c_str(), p.c_str());
  }
  if (problems.empty()) {
    std::printf("%s: ok (sash-events-v1)\n", path.string().c_str());
  }
  return problems.empty();
}

bool SelfTest() {
  // A conforming report produced by the real emitter must validate.
  const sash::obs::NamedValues metrics = {{"selftest.ops", 42}, {"selftest.latency_ns", 1500}};
  std::vector<sash::obs::BenchRun> runs;
  runs.push_back({"BM_SelfTest/16", 1000, 1234.5, 1200.0});
  std::string good = sash::obs::BenchReportJson("selftest", runs, metrics);
  if (!ValidateText("selftest(good)", good)) {
    std::fprintf(stderr, "selftest: emitter output failed validation\n");
    return false;
  }

  // A corrupted report (runs entry missing its name) must be rejected.
  std::string bad = R"({"schema":"sash-bench-v1","bench":"x",)"
                    R"("runs":[{"iterations":1,"real_time_ns":1.0,"cpu_time_ns":1.0}],)"
                    R"("metrics":{"counters":{},"gauges":{},"histograms":{}}})";
  std::optional<sash::obs::JsonValue> doc = sash::obs::JsonValue::Parse(bad);
  if (!doc.has_value() || sash::obs::ValidateBenchReport(*doc).empty()) {
    std::fprintf(stderr, "selftest: corrupted report was not rejected\n");
    return false;
  }

  // The journal validator must accept output from the real ring buffer and
  // reject a document with the wrong schema tag.
  sash::obs::EventJournal journal(1024);
  journal.Emit(sash::obs::EventKind::kMark, "selftest");
  journal.Emit(sash::obs::EventKind::kPhase, "selftest.phase", 1000);
  if (!sash::obs::EventJournal::ValidateJsonl(journal.ToJsonl()).empty()) {
    std::fprintf(stderr, "selftest: journal output failed validation\n");
    return false;
  }
  if (sash::obs::EventJournal::ValidateJsonl("{\"schema\":\"not-events\"}\n").empty()) {
    std::fprintf(stderr, "selftest: corrupted journal was not rejected\n");
    return false;
  }
  std::printf("selftest: ok\n");
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool selftest = false;
  std::vector<std::filesystem::path> inputs;
  std::vector<std::filesystem::path> journals;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--selftest") == 0) {
      selftest = true;
    } else if (std::strcmp(argv[i], "--journal") == 0 && i + 1 < argc) {
      journals.emplace_back(argv[++i]);
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      std::string text;
      const bool read = sash::util::ReadFile(argv[++i], &text);
      g_baseline = sash::obs::JsonValue::Parse(text);
      const sash::obs::JsonValue* schema =
          g_baseline.has_value() ? g_baseline->Find("schema") : nullptr;
      if (!read || schema == nullptr || !schema->is_string() ||
          schema->string != "sash-bench-baseline-v1") {
        std::fprintf(stderr, "%s: not a sash-bench-baseline-v1 document\n", argv[i]);
        return 2;
      }
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr,
                   "usage: sash_check_bench_json [--selftest] [--baseline FILE] "
                   "[--journal FILE] [dir-or-file ...]\n");
      return 2;
    } else {
      inputs.emplace_back(argv[i]);
    }
  }
  if (!selftest && inputs.empty() && journals.empty()) {
    std::fprintf(stderr,
                 "usage: sash_check_bench_json [--selftest] [--baseline FILE] "
                 "[--journal FILE] [dir-or-file ...]\n");
    return 2;
  }

  bool ok = true;
  if (selftest) {
    ok = SelfTest() && ok;
  }
  for (const std::filesystem::path& journal : journals) {
    ok = ValidateJournalFile(journal) && ok;
  }
  for (const std::filesystem::path& input : inputs) {
    std::error_code ec;
    if (std::filesystem::is_directory(input, ec)) {
      for (const auto& entry : std::filesystem::directory_iterator(input, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("BENCH_", 0) == 0 && entry.path().extension() == ".json") {
          ok = ValidateFile(entry.path()) && ok;
        }
      }
    } else if (std::filesystem::exists(input, ec)) {
      ok = ValidateFile(input) && ok;
    } else {
      // Not-yet-created output directories are expected before any bench runs.
      std::printf("%s: absent, skipped\n", input.string().c_str());
    }
  }
  return ok ? 0 : 1;
}
