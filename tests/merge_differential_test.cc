// Merge differential suite: over the shared fuzz-grammar corpus, the state
// merging strategy must be invisible in the report. Digest-based merging,
// paranoid cross-checked merging (SASH_PARANOID_MERGE), and no merging at
// all must produce identical sash-analysis-v1 findings — digest and paranoid
// merging byte-identical documents outright, merging on/off identical
// findings (engine stats differ by construction there: that is what merging
// does). Each seed's merge counts are pinned so that under-merging, which
// leaves findings intact, still shows.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <string>

#include "core/analyzer.h"
#include "json_normalize.h"
#include "obs/json.h"
#include "script_generator.h"

namespace sash {
namespace {

constexpr uint32_t kSeeds = 60;

core::AnalyzerOptions DifferentialOptions() {
  core::AnalyzerOptions options;
  options.enable_lint = true;
  options.enable_idempotence_check = true;
  options.enable_optimization_coach = true;
  return options;
}

struct RunResult {
  std::string json;               // Normalized full document.
  std::string findings_no_notes;  // Findings with witness notes stripped.
  int digest_collisions = 0;
  int states_merged = 0;
  int states_peak = 0;
};

RunResult Analyze(const std::string& script, bool merge, int max_states = 0) {
  core::AnalyzerOptions options = DifferentialOptions();
  options.engine.merge_identical_states = merge;
  if (max_states > 0) {
    options.engine.max_states = max_states;
  }
  core::Analyzer analyzer(options);
  core::AnalysisReport report = analyzer.AnalyzeSource(script);
  RunResult out;
  out.json = sash::testing::NormalizeJson(report.ToJson(nullptr));
  out.digest_collisions = report.engine_stats().digest_collisions;
  out.states_merged = report.engine_stats().states_merged;
  out.states_peak = report.engine_stats().states_peak;
  std::optional<obs::JsonValue> doc = obs::JsonValue::Parse(out.json);
  if (doc.has_value() && doc->is_object()) {
    if (const obs::JsonValue* findings = doc->Find("findings")) {
      obs::JsonValue stripped = *findings;
      for (obs::JsonValue& f : stripped.array) {
        if (f.is_object()) {
          f.object.erase(
              std::remove_if(f.object.begin(), f.object.end(),
                             [](const auto& kv) { return kv.first == "notes"; }),
              f.object.end());
        }
      }
      obs::JsonWriter w;
      obs::WriteJsonValue(stripped, &w);
      out.findings_no_notes = w.Take();
    }
  }
  return out;
}

// {states_merged, states_peak} per seed at the default options, as the
// rendered-signature merge path (which digest merging replaced, and which
// made identical decisions) counted them.
constexpr std::array<std::pair<int, int>, kSeeds> kPinnedMergeStats = {{
    {0, 1}, {6, 6}, {12, 76}, {5, 4}, {0, 1}, {18, 51},  // Seeds 1-6.
    {0, 1}, {0, 1}, {0, 2}, {67, 110}, {0, 3}, {1, 2},  // Seeds 7-12.
    {9, 15}, {8, 7}, {0, 1}, {0, 3}, {2, 4}, {211, 124},  // Seeds 13-18.
    {0, 3}, {0, 12}, {0, 2}, {1, 3}, {32, 41}, {55, 108},  // Seeds 19-24.
    {0, 1}, {24, 6}, {0, 8}, {2, 3}, {0, 24}, {0, 9},  // Seeds 25-30.
    {10, 28}, {10, 26}, {3, 3}, {0, 6}, {3, 30}, {8, 8},  // Seeds 31-36.
    {0, 32}, {0, 1}, {0, 16}, {0, 1}, {0, 6}, {0, 2},  // Seeds 37-42.
    {0, 3}, {126, 128}, {34, 45}, {42, 84}, {0, 1}, {0, 6},  // Seeds 43-48.
    {10, 16}, {27, 18}, {3, 12}, {0, 6}, {285, 128}, {9, 18},  // Seeds 49-54.
    {0, 1}, {0, 8}, {0, 1}, {0, 1}, {5, 8}, {2, 14},  // Seeds 55-60.
}};

TEST(MergeDifferentialTest, MergeCountsArePinned) {
  for (uint32_t seed = 1; seed <= kSeeds; ++seed) {
    testing::ScriptGenerator gen(seed);
    std::string script = gen.Program();
    SCOPED_TRACE("seed=" + std::to_string(seed) + "\n" + script);
    RunResult run = Analyze(script, /*merge=*/true);
    EXPECT_EQ(run.states_merged, kPinnedMergeStats[seed - 1].first);
    EXPECT_EQ(run.states_peak, kPinnedMergeStats[seed - 1].second);
  }
}

TEST(MergeDifferentialTest, MergingNeverChangesFindings) {
  // Two deliberate relaxations, both inherent to what merging IS:
  //   - the state cap is lifted (merging exists to preserve coverage under
  //     the cap; an unmerged run at the default cap drops paths outright,
  //     legitimately losing findings);
  //   - witness notes are stripped (assumptions are deliberately not part
  //     of state identity, so merging may pick a representative whose
  //     example path differs).
  // The diagnostics themselves (severity, code, location, message) must
  // not move.
  for (uint32_t seed = 1; seed <= kSeeds; ++seed) {
    testing::ScriptGenerator gen(seed);
    std::string script = gen.Program();
    SCOPED_TRACE("seed=" + std::to_string(seed) + "\n" + script);
    RunResult merged = Analyze(script, /*merge=*/true, 1 << 16);
    RunResult unmerged = Analyze(script, /*merge=*/false, 1 << 16);
    ASSERT_FALSE(merged.findings_no_notes.empty());
    EXPECT_EQ(merged.findings_no_notes, unmerged.findings_no_notes);
  }
}

TEST(MergeDifferentialTest, ParanoidMergeIsByteIdenticalAndCollisionFree) {
  // SASH_PARANOID_MERGE cross-checks every digest merge against the rendered
  // state signature; on this corpus no 64-bit collision may fire, and the
  // report must not move a byte.
  for (uint32_t seed = 1; seed <= kSeeds; ++seed) {
    testing::ScriptGenerator gen(seed);
    std::string script = gen.Program();
    SCOPED_TRACE("seed=" + std::to_string(seed) + "\n" + script);
    RunResult plain = Analyze(script, /*merge=*/true);
    ASSERT_EQ(setenv("SASH_PARANOID_MERGE", "1", /*overwrite=*/1), 0);
    RunResult paranoid = Analyze(script, /*merge=*/true);
    ASSERT_EQ(unsetenv("SASH_PARANOID_MERGE"), 0);
    EXPECT_EQ(plain.json, paranoid.json);
    EXPECT_EQ(paranoid.digest_collisions, 0);
  }
}

}  // namespace
}  // namespace sash
