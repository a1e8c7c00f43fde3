// Overflow-drop determinism: when the state cap overflows, the engine sorts
// the frontier by state digest before dropping the tail, so WHICH states
// survive is a function of the states themselves — not of container order,
// whether states were merged, or how many worker threads the batch driver
// used. The regression under test: -j and merging must not change the
// surviving diagnostics.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "batch/batch.h"
#include "core/analyzer.h"
#include "json_normalize.h"
#include "obs/json.h"

namespace sash {
namespace {

// Deep branching over distinct hazards: 2^10 paths against a tiny cap, so
// the drop path runs constantly and any nondeterminism in who survives
// shows up as a diagnostics diff.
std::string BranchyScript() {
  std::string s;
  for (int i = 0; i < 10; ++i) {
    s += "if grep -q key /etc/conf" + std::to_string(i) + "; then\n";
    s += "  dir" + std::to_string(i) + "=/srv/data" + std::to_string(i) + "\n";
    s += "  rm -r \"$dir" + std::to_string(i) + "/old\"\n";
    s += "fi\n";
  }
  s += "rm -rf \"$UNSET_ROOT/\"*\n";
  s += "echo done\n";
  return s;
}

std::string FindingsJson(const core::AnalysisReport& report) {
  std::optional<obs::JsonValue> doc =
      obs::JsonValue::Parse(sash::testing::NormalizeJson(report.ToJson(nullptr)));
  EXPECT_TRUE(doc.has_value() && doc->is_object());
  const obs::JsonValue* findings = doc->Find("findings");
  EXPECT_NE(findings, nullptr);
  obs::JsonWriter w;
  obs::WriteJsonValue(*findings, &w);
  return w.Take();
}

std::string AnalyzeFindings(const std::string& script, bool merge, int max_states) {
  core::AnalyzerOptions options;
  options.engine.merge_identical_states = merge;
  options.engine.max_states = max_states;
  core::Analyzer analyzer(options);
  core::AnalysisReport report = analyzer.AnalyzeSource(script);
  EXPECT_GT(report.engine_stats().states_dropped, 0)
      << "cap never overflowed; the test is not exercising the drop path";
  return FindingsJson(report);
}

TEST(OverflowDeterminismTest, MergeFlagsDoNotChangeSurvivingDiagnostics) {
  std::string script = BranchyScript();
  std::string reference = AnalyzeFindings(script, /*merge=*/true, 16);
  EXPECT_EQ(reference, AnalyzeFindings(script, /*merge=*/false, 16));
}

TEST(OverflowDeterminismTest, RepeatedRunsAreIdentical) {
  std::string script = BranchyScript();
  std::string reference = AnalyzeFindings(script, true, 16);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(reference, AnalyzeFindings(script, true, 16));
  }
}

TEST(OverflowDeterminismTest, BatchJobCountDoesNotChangeDiagnostics) {
  // The same overflowing corpus through the batch driver at -j1 and -j4:
  // per-file reports must match byte for byte (thread interleaving must not
  // leak into which states the engine drops).
  std::vector<std::pair<std::string, std::string>> sources;
  for (int i = 0; i < 12; ++i) {
    sources.emplace_back("branchy_" + std::to_string(i) + ".sh",
                         "X" + std::to_string(i) + "=seed\n" + BranchyScript());
  }
  std::vector<std::string> per_jobs;
  for (int jobs : {1, 4}) {
    batch::BatchOptions options;
    options.jobs = jobs;
    options.use_cache = false;
    options.analyzer.engine.max_states = 16;
    batch::BatchDriver driver(options);
    batch::BatchResult result = driver.RunSources(sources);
    ASSERT_EQ(result.files.size(), sources.size());
    std::string all;
    for (const auto& f : result.files) {
      ASSERT_TRUE(f.ok);
      all += sash::testing::NormalizeJson(f.report_json) + "\n";
    }
    per_jobs.push_back(std::move(all));
  }
  EXPECT_EQ(per_jobs[0], per_jobs[1]);
}

}  // namespace
}  // namespace sash
