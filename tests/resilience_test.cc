// Chaos and degradation suite for the resilient batch pipeline (ctest label
// "fuzz"): injected faults, per-file deadlines, byte-flipped cache entries,
// and fail-fast aborts must never hang the driver, tear its output, or leak
// a fault from one file into its neighbors' reports. The load-bearing
// property throughout: files the fault plan does not touch produce reports
// byte-identical (modulo wall-clock fields) to a fault-free run.
#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "batch/batch.h"
#include "batch/cache.h"
#include "core/analyzer.h"
#include "json_normalize.h"
#include "obs/json.h"
#include "script_generator.h"
#include "util/cancel.h"
#include "util/faultinject.h"

namespace sash::batch {
namespace {

namespace fs = std::filesystem;

using Sources = std::vector<std::pair<std::string, std::string>>;

Sources GeneratedCorpus(int count, uint32_t seed_base) {
  Sources sources;
  for (int i = 0; i < count; ++i) {
    sash::testing::ScriptGenerator gen(seed_base + static_cast<uint32_t>(i));
    char name[16];
    std::snprintf(name, sizeof(name), "s%02d.sh", i);
    sources.emplace_back(name, gen.Program());
  }
  return sources;
}

util::FaultPlan MustParse(const std::string& text, uint64_t seed = 0) {
  util::FaultPlan plan;
  std::string error;
  EXPECT_TRUE(util::FaultPlan::Parse(text, &plan, &error)) << error;
  plan.seed = seed;
  return plan;
}

// RAII install so a failing assertion cannot leak an active plan into the
// next test.
struct ScopedFaults {
  explicit ScopedFaults(const util::FaultPlan& plan) { util::FaultInjector::Install(plan); }
  ~ScopedFaults() { util::FaultInjector::Uninstall(); }
};

class ResilienceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("sash_resilience_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    util::FaultInjector::Uninstall();  // Never inherit ambient env plans.
  }
  void TearDown() override {
    util::FaultInjector::Uninstall();
    fs::remove_all(dir_);
  }

  fs::path dir_;
};

// The acceptance scenario: a fault plan that kills exactly one file of a
// 20-file batch. The other 19 reports are identical to the fault-free run,
// the victim is quarantined, and the driver exits with the partial-batch
// code.
TEST_F(ResilienceTest, SingleFaultedFileIsQuarantinedNeighborsUnaffected) {
  Sources sources = GeneratedCorpus(20, /*seed_base=*/9000);
  BatchOptions options;
  options.jobs = 4;
  options.use_cache = false;
  BatchDriver clean_driver(options);
  BatchResult clean = clean_driver.RunSources(sources);
  ASSERT_EQ(clean.files.size(), 20u);
  for (const FileResult& f : clean.files) {
    // Some grammar-fuzzed scripts legitimately degrade (state-cap); the
    // invariant under faults is "same as clean", not "pristine".
    EXPECT_TRUE(f.ok) << f.path;
  }

  BatchResult faulted;
  int64_t injected = 0;
  {
    ScopedFaults faults(MustParse("analyze.file~s07.sh=fail"));
    BatchDriver driver(options);
    faulted = driver.RunSources(sources);
    injected = util::FaultInjector::fires();
  }

  ASSERT_EQ(faulted.files.size(), 20u);
  for (size_t i = 0; i < faulted.files.size(); ++i) {
    const FileResult& f = faulted.files[i];
    if (f.path == "s07.sh") {
      EXPECT_FALSE(f.ok);
      EXPECT_EQ(f.status, FileStatus::kFailed);
      EXPECT_EQ(f.error, "injected fault: analyze.file");
      EXPECT_TRUE(f.report_json.empty());
      continue;
    }
    EXPECT_TRUE(f.ok) << f.path;
    EXPECT_EQ(f.status, clean.files[i].status) << f.path;
    EXPECT_EQ(sash::testing::NormalizeJson(f.report_json),
              sash::testing::NormalizeJson(clean.files[i].report_json))
        << f.path;
    EXPECT_EQ(f.report_text, clean.files[i].report_text) << f.path;
  }
  EXPECT_EQ(faulted.CountStatus(FileStatus::kFailed), 1u);
  EXPECT_EQ(faulted.Quarantined(), std::vector<std::string>{"s07.sh"});
  EXPECT_EQ(faulted.ExitCode(), 2);  // Documented partial-batch code.
  EXPECT_EQ(injected, 1);
}

// A pre-expired token degrades the analysis instead of producing garbage:
// the report is well-formed, carries the machine-readable reason, and
// explains itself via a SASH-INCOMPLETE note.
TEST_F(ResilienceTest, ExpiredTokenYieldsWellFormedDegradedReport) {
  util::CancelToken token;
  token.SetDeadlineAfterMs(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(3));

  core::AnalyzerOptions options;
  options.cancel = &token;
  core::Analyzer analyzer(std::move(options));
  core::AnalysisReport report = analyzer.AnalyzeSource("rm -rf \"$STEAMROOT/\"*\n");

  EXPECT_TRUE(report.degraded());
  EXPECT_EQ(report.degraded_reason(), "timeout");
  bool has_incomplete_note = false;
  for (const Diagnostic& d : report.findings()) {
    if (d.code == core::kCodeIncomplete) {
      has_incomplete_note = true;
      EXPECT_EQ(d.severity, Severity::kInfo);
    }
  }
  EXPECT_TRUE(has_incomplete_note);

  std::string json = report.ToJson(nullptr);
  std::optional<obs::JsonValue> doc = obs::JsonValue::Parse(json);
  ASSERT_TRUE(doc.has_value()) << json;
  const obs::JsonValue* degraded = doc->Find("degraded");
  ASSERT_NE(degraded, nullptr);
  EXPECT_TRUE(degraded->boolean);
  const obs::JsonValue* reason = doc->Find("degraded_reason");
  ASSERT_NE(reason, nullptr);
  EXPECT_EQ(reason->string, "timeout");
  EXPECT_NE(report.ToString().find("analysis incomplete (timeout)"), std::string::npos);
}

// A per-file deadline turns a pathological script into kTimedOut — and the
// timed-out report must never poison the cache (a rerun without the deadline
// recomputes from scratch and succeeds).
TEST_F(ResilienceTest, DeadlineTimesOutPathologicalFileAndIsNeverCached) {
  std::string huge;
  for (int i = 0; i < 40000; ++i) {
    huge += "echo step" + std::to_string(i) + " \"$A$B\"\n";
  }
  Sources sources = {{"huge.sh", huge}};

  BatchOptions options;
  options.jobs = 1;
  options.cache_dir = dir_ / "cache";
  options.deadline_ms = 1;
  BatchDriver driver(options);
  BatchResult result = driver.RunSources(sources);

  ASSERT_EQ(result.files.size(), 1u);
  const FileResult& slow = result.files[0];
  EXPECT_TRUE(slow.ok);  // Timed out, but still produced a (partial) report.
  EXPECT_EQ(slow.status, FileStatus::kTimedOut);
  EXPECT_EQ(slow.degraded_reason, "timeout");
  std::optional<obs::JsonValue> doc = obs::JsonValue::Parse(slow.report_json);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(result.ExitCode(), 2);
  EXPECT_EQ(result.Quarantined(), std::vector<std::string>{"huge.sh"});
  EXPECT_EQ(result.CountStatus(FileStatus::kTimedOut), 1u);

  // Wall-clock degradation is a property of this run, not of the input: the
  // rerun without a deadline must start from a miss (the timed-out report
  // was never cached), complete cleanly, and only then populate the cache.
  BatchOptions retry_options = options;
  retry_options.deadline_ms = 0;
  BatchDriver retry(retry_options);
  BatchResult recovered = retry.RunSources(sources);
  EXPECT_EQ(recovered.files[0].status, FileStatus::kOk);
  EXPECT_FALSE(recovered.files[0].cached) << "timed-out report leaked into the cache";
  EXPECT_NE(recovered.ExitCode(), 2);

  BatchResult warm = retry.RunSources(sources);
  EXPECT_TRUE(warm.files[0].cached);
  EXPECT_EQ(warm.files[0].status, FileStatus::kOk);
  EXPECT_EQ(warm.files[0].report_text, recovered.files[0].report_text);
}

// Satellite: the input byte budget degrades oversized scripts into an empty
// but well-formed report — deterministically, so it IS cacheable and the
// warm replay keeps the classification.
TEST_F(ResilienceTest, OversizedInputDegradesDeterministicallyAndCaches) {
  Sources sources = {{"big.sh", std::string(4096, '#') + "\necho hi\n"}};
  BatchOptions options;
  options.jobs = 1;
  options.cache_dir = dir_ / "cache";
  options.analyzer.max_input_bytes = 64;
  BatchDriver driver(options);

  BatchResult cold = driver.RunSources(sources);
  ASSERT_EQ(cold.files.size(), 1u);
  EXPECT_EQ(cold.files[0].status, FileStatus::kDegraded);
  EXPECT_EQ(cold.files[0].degraded_reason, "input-too-large");
  EXPECT_EQ(cold.ExitCode(), 0);  // Degraded-but-complete: findings decide.

  BatchResult warm = driver.RunSources(sources);
  EXPECT_TRUE(warm.files[0].cached);
  EXPECT_EQ(warm.files[0].status, FileStatus::kDegraded);
  EXPECT_EQ(warm.files[0].degraded_reason, "input-too-large");
  EXPECT_EQ(warm.files[0].report_json, cold.files[0].report_json);
}

// Satellite regression test: flip one byte inside a warm entry on disk. The
// checksum demotes it to a miss, the driver recomputes bytes identical to
// the cold run, and the corruption is counted — never replayed.
TEST_F(ResilienceTest, ByteFlippedCacheEntryDemotesToMissAndRecomputes) {
  Sources sources = GeneratedCorpus(1, /*seed_base=*/777);
  fs::path cache_dir = dir_ / "cache";
  BatchOptions options;
  options.jobs = 1;
  options.cache_dir = cache_dir;
  BatchDriver driver(options);
  BatchResult cold = driver.RunSources(sources);
  ASSERT_TRUE(cold.files[0].ok);

  // Locate the single entry and flip the case of one report_text letter:
  // the header and lengths stay valid, so only the content checksum can
  // catch it.
  std::vector<fs::path> entries;
  for (const auto& e : fs::recursive_directory_iterator(cache_dir)) {
    if (e.is_regular_file()) {
      entries.push_back(e.path());
    }
  }
  ASSERT_EQ(entries.size(), 1u);
  std::string payload;
  {
    std::ifstream in(entries[0], std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    payload = buf.str();
  }
  // The text report is the tail of a v2 entry, after the JSON report.
  const size_t text_start = payload.size() - cold.files[0].report_text.size();
  ASSERT_EQ(payload.substr(text_start), cold.files[0].report_text);
  size_t flip = std::string::npos;
  for (size_t i = text_start; i < payload.size(); ++i) {
    if (std::isalpha(static_cast<unsigned char>(payload[i]))) {
      flip = i;
      break;
    }
  }
  ASSERT_NE(flip, std::string::npos);
  payload[flip] ^= 0x20;
  {
    std::ofstream out(entries[0], std::ios::binary | std::ios::trunc);
    out << payload;
  }

  BatchDriver warm_driver(options);
  BatchResult warm = warm_driver.RunSources(sources);
  EXPECT_FALSE(warm.files[0].cached);
  EXPECT_EQ(warm.files[0].status, FileStatus::kOk);
  EXPECT_EQ(sash::testing::NormalizeJson(warm.files[0].report_json),
            sash::testing::NormalizeJson(cold.files[0].report_json));
  EXPECT_EQ(warm.files[0].report_text, cold.files[0].report_text);
  EXPECT_EQ(warm.cache.corrupt_entries, 1);

  // The recompute overwrote the rotten entry: the next pass is a clean hit.
  BatchResult healed = warm_driver.RunSources(sources);
  EXPECT_TRUE(healed.files[0].cached);
  EXPECT_EQ(healed.files[0].report_text, cold.files[0].report_text);
}

// Same demotion for a torn (truncated) entry — the other half of bit rot.
TEST_F(ResilienceTest, TruncatedCacheEntryDemotesToMiss) {
  Sources sources = GeneratedCorpus(1, /*seed_base=*/778);
  fs::path cache_dir = dir_ / "cache";
  BatchOptions options;
  options.jobs = 1;
  options.cache_dir = cache_dir;
  BatchDriver driver(options);
  BatchResult cold = driver.RunSources(sources);

  for (const auto& e : fs::recursive_directory_iterator(cache_dir)) {
    if (!e.is_regular_file()) {
      continue;
    }
    fs::resize_file(e.path(), fs::file_size(e.path()) / 2);
  }

  BatchDriver warm_driver(options);
  BatchResult warm = warm_driver.RunSources(sources);
  EXPECT_FALSE(warm.files[0].cached);
  EXPECT_EQ(warm.files[0].report_text, cold.files[0].report_text);
  EXPECT_EQ(warm.cache.corrupt_entries, 1);
}

// An entry left by an older sash in the v1 JSON envelope, at the path a v2
// entry for the same key takes: it is a miss, the recompute overwrites it
// with a v2 entry, and the next run replays that entry byte for byte.
TEST_F(ResilienceTest, V1EntryIsAMissThenOverwrittenByV2) {
  Sources sources = GeneratedCorpus(1, /*seed_base=*/779);
  fs::path cache_dir = dir_ / "cache";
  BatchOptions options;
  options.jobs = 1;
  options.cache_dir = cache_dir;
  const std::string key = AnalysisKey(sources[0].second, options.analyzer);
  obs::JsonWriter v1;
  v1.BeginObject();
  v1.KV("schema", "sash-cache-v1");
  v1.KV("kind", "analysis");
  v1.KV("key", key);
  v1.KV("sash", "0.5.0");
  v1.KV("warnings_or_worse", 0);
  v1.KV("degraded_reason", "");
  v1.KV("checksum", std::string(64, '0'));
  v1.KV("report_text", "stale\n");
  v1.Key("report").Raw(R"({"schema":"sash-analysis-v1"})");
  v1.EndObject();
  Cache cache(cache_dir);
  ASSERT_TRUE(cache.Put("analysis", key, v1.Take()));

  BatchDriver driver(options);
  BatchResult recomputed = driver.RunSources(sources);
  ASSERT_TRUE(recomputed.files[0].ok);
  EXPECT_FALSE(recomputed.files[0].cached);
  EXPECT_NE(recomputed.files[0].report_text, "stale\n");
  EXPECT_EQ(recomputed.cache.corrupt_entries, 1);

  std::optional<std::string> entry = cache.Get("analysis", key);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->substr(0, entry->find(' ')), kAnalysisCacheSchema);

  BatchResult warm = driver.RunSources(sources);
  EXPECT_TRUE(warm.files[0].cached);
  EXPECT_EQ(warm.files[0].report_json, recomputed.files[0].report_json);
  EXPECT_EQ(warm.files[0].report_text, recomputed.files[0].report_text);
  EXPECT_EQ(warm.files[0].warnings_or_worse, recomputed.files[0].warnings_or_worse);
}

// An injected first-attempt write failure is absorbed by the retry loop: the
// entry still lands, and the retry is visible in the cache's counts.
TEST_F(ResilienceTest, CacheWriteRetryAbsorbsTransientFailure) {
  Cache cache(dir_ / "cache");
  const std::string key(64, 'b');
  const std::string payload = "{\"schema\":\"sash-cache-v1\",\"x\":1}";
  {
    // "#1" fires on the first cache.write occurrence only — attempt 0 of
    // this Put — so the failure is transient by construction.
    ScopedFaults faults(MustParse("cache.write#1=fail"));
    EXPECT_TRUE(cache.Put("analysis", key, payload));
  }
  EXPECT_EQ(cache.stats().retries, 1);
  EXPECT_EQ(cache.stats().write_failures, 1);
  std::optional<std::string> got = cache.Get("analysis", key);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
}

// A permanent rename failure exhausts the retries, reports false, and leaves
// neither a destination entry nor temp debris behind.
TEST_F(ResilienceTest, PermanentRenameFailureLeavesNoDebris) {
  Cache cache(dir_ / "cache");
  {
    ScopedFaults faults(MustParse("cache.rename=fail"));
    EXPECT_FALSE(cache.Put("analysis", std::string(64, 'c'), "{}"));
  }
  EXPECT_EQ(cache.stats().retries, Cache::kPutAttempts - 1);
  int files = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir_ / "cache")) {
    files += e.is_regular_file();
  }
  EXPECT_EQ(files, 0);
  // The cache stays usable after giving up.
  EXPECT_TRUE(cache.Put("analysis", std::string(64, 'c'), "{}"));
}

// Injected pool-task delays reorder scheduling but must not change any
// result byte or status.
TEST_F(ResilienceTest, PoolDelaysDoNotChangeResults) {
  Sources sources = GeneratedCorpus(12, /*seed_base=*/5100);
  BatchOptions options;
  options.jobs = 4;
  options.use_cache = false;
  BatchDriver clean_driver(options);
  BatchResult clean = clean_driver.RunSources(sources);

  BatchResult delayed;
  {
    ScopedFaults faults(MustParse("pool.task%400@1=delay", /*seed=*/3));
    BatchDriver driver(options);
    delayed = driver.RunSources(sources);
  }
  ASSERT_EQ(delayed.files.size(), clean.files.size());
  for (size_t i = 0; i < clean.files.size(); ++i) {
    EXPECT_EQ(delayed.files[i].status, clean.files[i].status);
    EXPECT_EQ(sash::testing::NormalizeJson(delayed.files[i].report_json),
              sash::testing::NormalizeJson(clean.files[i].report_json))
        << clean.files[i].path;
  }
}

// --fail-fast: the first failure aborts the batch; files behind it come back
// as skipped-kFailed, nothing hangs, and the exit code stays the
// partial-batch code. An unreadable first input is the deterministic trigger:
// its read error lands before any analysis task is even submitted.
TEST_F(ResilienceTest, FailFastSkipsRemainingFilesAfterFirstFailure) {
  std::vector<std::string> paths;
  paths.push_back((dir_ / "missing.sh").string());  // Never created.
  Sources generated = GeneratedCorpus(8, /*seed_base=*/6200);
  for (const auto& [name, source] : generated) {
    fs::path p = dir_ / name;
    std::ofstream out(p);
    out << source;
    paths.push_back(p.string());
  }

  BatchOptions options;
  options.jobs = 2;
  options.use_cache = false;
  options.fail_fast = true;
  BatchDriver driver(options);
  BatchResult result = driver.Run(paths);

  ASSERT_EQ(result.files.size(), 9u);
  EXPECT_EQ(result.files[0].status, FileStatus::kFailed);
  EXPECT_NE(result.files[0].error.find("cannot open"), std::string::npos);
  for (size_t i = 1; i < result.files.size(); ++i) {
    const FileResult& f = result.files[i];
    EXPECT_EQ(f.status, FileStatus::kFailed) << f.path;
    EXPECT_EQ(f.error, "skipped: batch aborted by --fail-fast") << f.path;
  }
  EXPECT_EQ(result.ExitCode(), 2);
  EXPECT_EQ(result.Quarantined().size(), 9u);

  // Control: without --fail-fast every readable input is still analyzed —
  // the unreadable one cannot sink its neighbors.
  options.fail_fast = false;
  BatchDriver tolerant(options);
  BatchResult partial = tolerant.Run(paths);
  EXPECT_EQ(partial.files[0].status, FileStatus::kFailed);
  for (size_t i = 1; i < partial.files.size(); ++i) {
    EXPECT_TRUE(partial.files[i].ok) << partial.files[i].path;
  }
  EXPECT_EQ(partial.ExitCode(), 2);
}

// The chaos soak: a high-rate plan over every absorbable site, driven across
// the shared fuzz-grammar corpus, cold and warm. Nothing crashes or hangs,
// and every functional byte matches the fault-free run — cache faults demote
// to misses, write failures just skip caching, delays are invisible.
TEST_F(ResilienceTest, ChaosSoakKeepsResultsByteIdentical) {
  Sources sources = GeneratedCorpus(24, /*seed_base=*/31000);
  BatchOptions clean_options;
  clean_options.jobs = 4;
  clean_options.use_cache = false;
  BatchDriver clean_driver(clean_options);
  BatchResult clean = clean_driver.RunSources(sources);

  std::vector<std::string> clean_normalized;
  for (const FileResult& f : clean.files) {
    EXPECT_TRUE(f.ok) << f.path;
    clean_normalized.push_back(sash::testing::NormalizeJson(f.report_json));
  }

  // High-rate variant of the built-in chaos plan (same sites, ~20x the
  // rates) so a single soak pass exercises every failure path for sure.
  const std::string plan =
      "cache.read%300=torn;cache.read%300=corrupt;cache.read%200=fail;"
      "cache.write%300=fail;cache.rename%200=fail;"
      "pool.task%200@1=delay";
  for (uint64_t seed : {1u, 2u, 3u}) {
    ScopedFaults faults(MustParse(plan, seed));
    BatchOptions options;
    options.jobs = 4;
    options.cache_dir = dir_ / ("cache_" + std::to_string(seed));
    BatchDriver driver(options);
    for (int pass = 0; pass < 2; ++pass) {  // Cold, then (partially) warm.
      BatchResult chaotic = driver.RunSources(sources);
      ASSERT_EQ(chaotic.files.size(), sources.size());
      for (size_t i = 0; i < chaotic.files.size(); ++i) {
        const FileResult& f = chaotic.files[i];
        EXPECT_TRUE(f.ok) << f.path << " seed=" << seed;
        EXPECT_EQ(f.status, clean.files[i].status) << f.path << " seed=" << seed;
        EXPECT_EQ(sash::testing::NormalizeJson(f.report_json), clean_normalized[i])
            << f.path << " seed=" << seed << " pass=" << pass;
      }
      EXPECT_EQ(chaotic.ExitCode(), clean.ExitCode());
    }
    // The rates guarantee the plan actually engaged.
    EXPECT_GT(util::FaultInjector::fires(), 0) << "seed=" << seed;
  }

  // And the built-in plan the CI chaos job uses (SASH_FAULT_SEED): lower
  // rates, same invariant.
  {
    ScopedFaults faults(util::FaultPlan::DefaultChaos(20260806));
    BatchOptions options;
    options.jobs = 4;
    options.cache_dir = dir_ / "cache_default";
    BatchDriver driver(options);
    BatchResult chaotic = driver.RunSources(sources);
    for (size_t i = 0; i < chaotic.files.size(); ++i) {
      EXPECT_EQ(sash::testing::NormalizeJson(chaotic.files[i].report_json),
                clean_normalized[i])
          << chaotic.files[i].path;
    }
  }
}

// ---------------------------------------------------------------------------
// Crash containment (--isolate) and resource-exhaustion degradation.

// The batch acceptance scenario for process isolation: one file of the batch
// takes a real SIGSEGV inside its forked worker. The victim is classified
// "crashed" with its repro banked under <cache>/quarantine/, the driver and
// every neighbor are untouched, and neighbor reports are byte-identical to a
// fault-free run.
TEST_F(ResilienceTest, IsolatedWorkerCrashIsQuarantinedNeighborsByteIdentical) {
  Sources sources = GeneratedCorpus(8, /*seed_base=*/41000);
  BatchOptions clean_options;
  clean_options.jobs = 2;
  clean_options.use_cache = false;
  BatchDriver clean_driver(clean_options);
  BatchResult clean = clean_driver.RunSources(sources);
  ASSERT_EQ(clean.files.size(), sources.size());

  BatchOptions options;
  options.jobs = 2;
  options.use_cache = true;
  options.cache_dir = dir_ / "cache";
  options.isolate = true;
  BatchResult crashed;
  {
    ScopedFaults faults(MustParse("analyze.file~s03.sh=crash"));
    BatchDriver driver(options);
    crashed = driver.RunSources(sources);
  }

  ASSERT_EQ(crashed.files.size(), sources.size());
  std::string victim_source;
  for (size_t i = 0; i < crashed.files.size(); ++i) {
    const FileResult& f = crashed.files[i];
    if (f.path == "s03.sh") {
      victim_source = sources[i].second;
      EXPECT_FALSE(f.ok);
      EXPECT_EQ(f.status, FileStatus::kCrashed);
      EXPECT_EQ(FileStatusName(f.status), "crashed");
      EXPECT_EQ(f.degraded_reason, "crashed:SIGSEGV");
      EXPECT_NE(f.error.find("repro banked"), std::string::npos) << f.error;
      EXPECT_TRUE(f.report_json.empty());
      continue;
    }
    EXPECT_TRUE(f.ok) << f.path;
    EXPECT_EQ(f.status, clean.files[i].status) << f.path;
    // The crash next door — a whole worker process dying — must be
    // invisible in every other report, byte for byte.
    EXPECT_EQ(sash::testing::NormalizeJson(f.report_json),
              sash::testing::NormalizeJson(clean.files[i].report_json))
        << f.path;
    EXPECT_EQ(f.report_text, clean.files[i].report_text) << f.path;
  }
  EXPECT_EQ(crashed.CountStatus(FileStatus::kCrashed), 1u);
  EXPECT_EQ(crashed.Quarantined(), std::vector<std::string>{"s03.sh"});
  EXPECT_EQ(crashed.ExitCode(), 2);
  EXPECT_EQ(crashed.crash.workers, 1);
  EXPECT_EQ(crashed.crash.quarantined, 1);
  EXPECT_EQ(crashed.crash.oom, 0);

  // The banked repro: script bytes verbatim, with a post-mortem sidecar.
  fs::path quarantine = dir_ / "cache" / "quarantine";
  ASSERT_TRUE(fs::exists(quarantine));
  std::vector<fs::path> repros;
  std::vector<fs::path> sidecars;
  for (const auto& entry : fs::directory_iterator(quarantine)) {
    if (entry.path().extension() == ".sh") {
      repros.push_back(entry.path());
    } else if (entry.path().extension() == ".json") {
      sidecars.push_back(entry.path());
    }
  }
  ASSERT_EQ(repros.size(), 1u);
  ASSERT_EQ(sidecars.size(), 1u);
  EXPECT_NE(repros[0].filename().string().find("s03.sh"), std::string::npos);
  std::ifstream in(repros[0], std::ios::binary);
  std::ostringstream banked;
  banked << in.rdbuf();
  EXPECT_EQ(banked.str(), victim_source);
  std::ifstream meta_in(sidecars[0]);
  std::ostringstream meta;
  meta << meta_in.rdbuf();
  EXPECT_NE(meta.str().find("crashed:SIGSEGV"), std::string::npos);
  EXPECT_NE(meta.str().find("sash-quarantine-v1"), std::string::npos);
}

// Without --isolate the same =crash plan degrades to an ordinary injected
// failure: a process with no sacrificial worker never kills itself.
TEST_F(ResilienceTest, CrashFaultOutsideAWorkerDegradesToFailure) {
  Sources sources = GeneratedCorpus(4, /*seed_base=*/42000);
  BatchOptions options;
  options.jobs = 2;
  options.use_cache = false;  // isolate stays false.
  ScopedFaults faults(MustParse("analyze.file~s01.sh=crash"));
  BatchDriver driver(options);
  BatchResult result = driver.RunSources(sources);
  ASSERT_EQ(result.files.size(), 4u);
  for (const FileResult& f : result.files) {
    if (f.path == "s01.sh") {
      EXPECT_EQ(f.status, FileStatus::kFailed);
      EXPECT_NE(f.error.find("crash requested outside a worker"), std::string::npos);
    } else {
      EXPECT_TRUE(f.ok) << f.path;
    }
  }
  EXPECT_EQ(result.CountStatus(FileStatus::kCrashed), 0u);
}

// Disk exhaustion on cache writes: the first exhausted retry schedule flips
// the cache read-only for the rest of the run. Analysis never fails, every
// uninstalled entry still counts in cache.write_failures, but the retry
// backoff is paid once — not once per file.
TEST_F(ResilienceTest, EnospcFlipsCacheReadOnlyAndStopsPayingRetries) {
  Sources sources = GeneratedCorpus(20, /*seed_base=*/43000);
  BatchOptions options;
  options.jobs = 2;
  options.use_cache = true;
  options.cache_dir = dir_ / "cache";

  ScopedFaults faults(MustParse("cache.write=enospc"));
  BatchDriver driver(options);
  BatchResult result = driver.RunSources(sources);

  // The run itself is healthy: a full cache device costs caching, nothing
  // else.
  ASSERT_EQ(result.files.size(), sources.size());
  for (const FileResult& f : result.files) {
    EXPECT_TRUE(f.ok) << f.path << ": " << f.error;
  }
  EXPECT_EQ(result.cache_hits, 0);

  // Every failed install is still counted...
  EXPECT_GE(result.cache.write_failures, static_cast<int64_t>(sources.size()));
  // ...but the exponential backoff was only paid while the first write(s)
  // exhausted their attempts. Without the read-only degradation this would
  // be 2 retries for every one of the 20 files.
  EXPECT_LE(result.cache.retries, 8);
  EXPECT_TRUE(result.cache.read_only);

  // The degradation is per-run: a fresh driver (fresh Cache) with a healthy
  // disk writes again.
  util::FaultInjector::Uninstall();
  BatchDriver healthy(options);
  BatchResult second = healthy.RunSources(sources);
  for (const FileResult& f : second.files) {
    EXPECT_TRUE(f.ok) << f.path;
  }
  EXPECT_FALSE(second.cache.read_only);
  EXPECT_EQ(second.cache.write_failures, 0);

  // And a third run replays those entries warm, byte-identically.
  BatchDriver warm(options);
  BatchResult replay = warm.RunSources(sources);
  EXPECT_EQ(replay.cache_hits, static_cast<int64_t>(sources.size()));
  for (size_t i = 0; i < replay.files.size(); ++i) {
    EXPECT_EQ(replay.files[i].report_json, second.files[i].report_json);
  }
}

}  // namespace
}  // namespace sash::batch
