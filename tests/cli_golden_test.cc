// Golden tests for the sash CLI: each case drives the installed binary the
// way a user would (argv, stdin-free, exit codes) and diffs its output
// against a committed golden file. Wall-clock fields are normalized to zero
// before the diff; everything else — findings, order, cache hit/miss counts,
// schema shape — must match byte-for-byte.
//
// Environment (set by ctest; see tests/CMakeLists.txt):
//   SASH_BIN          path to the sash binary
//   SASH_GOLDEN_DIR   source-tree tests/golden directory
//   SASH_SCRIPTS_DIR  source-tree examples/scripts directory
// Regenerate goldens with SASH_UPDATE_GOLDENS=1 ctest -R cli_golden.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "json_normalize.h"
#include "obs/journal.h"
#include "obs/report.h"

namespace {

namespace fs = std::filesystem;

std::string Env(const char* name) {
  const char* v = std::getenv(name);
  return v == nullptr ? std::string() : std::string(v);
}

struct RunResult {
  int exit_code = -1;
  std::string output;
};

// Runs `cmd` under /bin/sh with cwd = the example-scripts directory, so the
// paths the CLI echoes back are short, relative, and machine-independent.
RunResult RunCli(const std::string& cmd) {
  std::string full = "cd '" + Env("SASH_SCRIPTS_DIR") + "' && " + cmd;
  RunResult r;
  FILE* p = ::popen(full.c_str(), "r");
  if (p == nullptr) {
    return r;
  }
  char buf[4096];
  size_t n;
  while ((n = ::fread(buf, 1, sizeof(buf), p)) > 0) {
    r.output.append(buf, n);
  }
  int status = ::pclose(p);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

// The value of one `--stats` line ("  name   value"); -1 when absent.
int64_t StatValue(const std::string& stats, const std::string& name) {
  std::istringstream lines(stats);
  for (std::string line; std::getline(lines, line);) {
    std::istringstream fields(line);
    std::string key;
    std::string value;
    if (fields >> key >> value && key == name) {
      return std::stoll(value);
    }
  }
  return -1;
}

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

// Diffs `actual` against the named golden, or rewrites the golden when
// SASH_UPDATE_GOLDENS is set.
void ExpectGolden(const std::string& name, const std::string& actual) {
  fs::path golden = fs::path(Env("SASH_GOLDEN_DIR")) / name;
  if (!Env("SASH_UPDATE_GOLDENS").empty()) {
    std::ofstream(golden, std::ios::binary) << actual;
    SUCCEED() << "updated " << golden;
    return;
  }
  ASSERT_TRUE(fs::exists(golden)) << golden << " missing; run with SASH_UPDATE_GOLDENS=1";
  EXPECT_EQ(ReadFile(golden), actual) << "golden mismatch: " << name;
}

class CliGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    bin_ = Env("SASH_BIN");
    if (bin_.empty() || !fs::exists(bin_)) {
      GTEST_SKIP() << "SASH_BIN not set or missing (binary not built?)";
    }
    ASSERT_FALSE(Env("SASH_GOLDEN_DIR").empty());
    ASSERT_FALSE(Env("SASH_SCRIPTS_DIR").empty());
    cache_ = fs::temp_directory_path() / ("sash_cli_golden_" + std::to_string(::getpid()));
    fs::remove_all(cache_);
  }
  void TearDown() override {
    if (!cache_.empty()) {
      fs::remove_all(cache_);
    }
  }

  std::string Sash(const std::string& args) { return "'" + bin_ + "' " + args; }
  std::string CacheFlag() { return "--cache-dir '" + cache_.string() + "'"; }

  std::string bin_;
  fs::path cache_;
};

TEST_F(CliGoldenTest, SingleFileJson) {
  RunResult r = RunCli(Sash("analyze --format=json --no-cache steam_updater.sh"));
  EXPECT_EQ(r.exit_code, 1);  // The Fig. 1 bug is a finding.
  ExpectGolden("single_steam.json", sash::testing::NormalizeJson(r.output));
}

TEST_F(CliGoldenTest, SingleFileText) {
  RunResult r = RunCli(Sash("analyze --no-cache steam_updater.sh"));
  EXPECT_EQ(r.exit_code, 1);
  ExpectGolden("single_steam.txt", r.output);  // Text output has no timings.
}

TEST_F(CliGoldenTest, MultiFileText) {
  RunResult r = RunCli(Sash("analyze --no-cache pipeline.sh unset_var.sh"));
  EXPECT_EQ(r.exit_code, 1);
  ExpectGolden("multi_text.txt", r.output);
}

TEST_F(CliGoldenTest, VerifySteamText) {
  // Fig. 1 under verify: symex reports the root deletion before the run,
  // and the guard blocks it when "$STEAMROOT/"* globs to root's entries.
  RunResult r = RunCli(Sash("verify steam_updater.sh"));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("static 4:1-4:22 error[SASH-DEL-ROOT]"), std::string::npos);
  EXPECT_NE(r.output.find("\nBLOCKED: "), std::string::npos);
  ExpectGolden("verify_steam.txt", r.output);
}

TEST_F(CliGoldenTest, BatchJsonColdThenWarm) {
  std::string cmd =
      Sash("analyze --format=json -j2 " + CacheFlag() +
           " steam_updater.sh pipeline.sh unset_var.sh");
  RunResult cold = RunCli(cmd);
  EXPECT_EQ(cold.exit_code, 1);
  ExpectGolden("batch_cold.json", sash::testing::NormalizeJson(cold.output));

  // Same command again: identical reports, but served from the cache — the
  // warm golden differs from the cold one only in cached flags and counters.
  RunResult warm = RunCli(cmd);
  EXPECT_EQ(warm.exit_code, 1);
  ExpectGolden("batch_warm.json", sash::testing::NormalizeJson(warm.output));
}

TEST_F(CliGoldenTest, BatchJsonNoCache) {
  RunResult r = RunCli(Sash("analyze --format=json -j2 --no-cache steam_updater.sh pipeline.sh"));
  EXPECT_EQ(r.exit_code, 1);
  ExpectGolden("batch_nocache.json", sash::testing::NormalizeJson(r.output));
}

TEST_F(CliGoldenTest, JobsFlagSpellings) {
  // -j4, -j 4, --jobs 4, --jobs=4 are all accepted and equivalent mod timing.
  std::string rest = " --format=json --no-cache pipeline.sh install.sh";
  std::string a = sash::testing::NormalizeJson(RunCli(Sash("analyze -j4" + rest)).output);
  std::string b = sash::testing::NormalizeJson(RunCli(Sash("analyze -j 4" + rest)).output);
  std::string c = sash::testing::NormalizeJson(RunCli(Sash("analyze --jobs 4" + rest)).output);
  std::string d = sash::testing::NormalizeJson(RunCli(Sash("analyze --jobs=4" + rest)).output);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
  EXPECT_EQ(a, d);

  // Every valued flag takes `--flag V` and `--flag=V`, with identical output.
  fs::path glued_cache = cache_ / "glued";
  fs::path spaced_cache = cache_ / "spaced";
  RunResult glued = RunCli(Sash("analyze --format=json -j2 --cache-dir='" + glued_cache.string() +
                                "' pipeline.sh install.sh"));
  RunResult spaced = RunCli(Sash("analyze --format=json -j2 --cache-dir '" +
                                 spaced_cache.string() + "' pipeline.sh install.sh"));
  EXPECT_EQ(glued.exit_code, spaced.exit_code);
  EXPECT_EQ(sash::testing::NormalizeJson(glued.output),
            sash::testing::NormalizeJson(spaced.output));
  EXPECT_TRUE(fs::exists(glued_cache / "analysis")) << "--cache-dir=D was not used";

  // The annotation makes unset_var.sh clean, so a dropped file would show.
  fs::create_directories(cache_);
  fs::path annotations = cache_ / "tmpdir.sasht";
  std::ofstream(annotations) << "var TMPDIR : //scratch/[a-z]+/\n";
  RunResult ann_glued = RunCli(
      Sash("analyze --no-cache --annotations='" + annotations.string() + "' unset_var.sh"));
  RunResult ann_spaced = RunCli(
      Sash("analyze --no-cache --annotations '" + annotations.string() + "' unset_var.sh"));
  EXPECT_EQ(ann_glued.exit_code, 0);
  EXPECT_EQ(ann_spaced.exit_code, 0);
  EXPECT_EQ(ann_glued.output, ann_spaced.output);

  std::string json_spaced = RunCli(Sash("analyze --no-cache --format json loop.sh")).output;
  std::string json_glued = RunCli(Sash("analyze --no-cache --format=json loop.sh")).output;
  EXPECT_EQ(sash::testing::NormalizeJson(json_spaced), sash::testing::NormalizeJson(json_glued));
  EXPECT_EQ(json_glued.rfind("{\"schema\":\"sash-analysis-v1\"", 0), 0u) << json_glued;
}

TEST_F(CliGoldenTest, ExitCodes) {
  // Clean script → 0.
  fs::path clean = fs::temp_directory_path() / "sash_cli_clean.sh";
  std::ofstream(clean) << "echo hello\n";
  EXPECT_EQ(RunCli(Sash("analyze --no-cache '" + clean.string() + "'")).exit_code, 0);
  fs::remove(clean);

  // Findings → 1 (covered above too); usage error → 2.
  EXPECT_EQ(RunCli(Sash("analyze --format=json")).exit_code, 2);       // No inputs.
  EXPECT_EQ(RunCli(Sash("analyze --bogus-flag x.sh")).exit_code, 2);   // Unknown flag.
  RunResult empty_path = RunCli(Sash("analyze --folded= x.sh 2>&1"));
  EXPECT_EQ(empty_path.exit_code, 2);
  EXPECT_NE(empty_path.output.find("--folded requires a value"), std::string::npos)
      << empty_path.output;
  EXPECT_EQ(RunCli(Sash("profile x.sh")).exit_code, 2);                // Unknown verb.
  EXPECT_EQ(RunCli(Sash("mine rm cp")).exit_code, 2);                  // One command at most.
  EXPECT_EQ(RunCli(Sash("verify --bogus pipeline.sh")).exit_code, 2);  // Unknown flag.
  RunResult trailing = RunCli(Sash("analyze pipeline.sh --cache-dir 2>&1"));
  EXPECT_EQ(trailing.exit_code, 2);
  EXPECT_NE(trailing.output.find("--cache-dir requires a value"), std::string::npos)
      << trailing.output;

  // Every integer flag rejects a non-integer, an out-of-range value and an
  // int64 overflow by name. serve rejects them before it binds its socket.
  fs::create_directories(cache_);
  const fs::path socket = cache_ / "never.sock";
  const std::pair<std::string, std::vector<std::string>> int_flags[] = {
      {"analyze", {"--jobs", "-j", "--deadline-ms", "--max-input-bytes", "--max-rss-mb",
                   "--worker-cpu-s"}},
      {"serve", {"--jobs", "-j", "--max-pending", "--max-connections", "--deadline-cap-ms",
                 "--default-budget-ms", "--idle-timeout-ms", "--io-timeout-ms",
                 "--drain-deadline-ms", "--max-frame-bytes", "--max-rss-mb", "--worker-cpu-s",
                 "--max-restarts", "--heartbeat-ms"}},
  };
  for (const auto& [verb, flags] : int_flags) {
    const std::string rest =
        verb == "serve" ? "--socket '" + socket.string() + "'" : std::string("pipeline.sh");
    for (const std::string& flag : flags) {
      for (const char* bad : {"x", "-1", "99999999999999999999"}) {
        std::string cmd = "timeout 20 " + Sash(verb + " " + flag + " " + bad + " " + rest);
        RunResult r = RunCli(cmd + " 2>&1");
        EXPECT_EQ(r.exit_code, 2) << cmd << "\n" << r.output;
        EXPECT_NE(r.output.find("sash " + verb + ": " + flag + " "), std::string::npos)
            << cmd << "\n" << r.output;
      }
    }
  }
  EXPECT_FALSE(fs::exists(socket)) << "serve started despite a bad flag";

  // Partial batch: the unreadable file is reported, the readable one is
  // still analyzed, and the exit code is 2 (I/O beats findings).
  RunResult partial =
      RunCli(Sash("analyze --no-cache /does/not/exist.sh unset_var.sh") + " 2>&1");
  EXPECT_EQ(partial.exit_code, 2);
  EXPECT_NE(partial.output.find("exist.sh"), std::string::npos);
  EXPECT_NE(partial.output.find("unset_var.sh"), std::string::npos);
}

TEST_F(CliGoldenTest, ReportSummarizesBenchDocuments) {
  const sash::obs::NamedValues metrics = {{"serve.requests", 17}, {"serve.warm_p50_us", 120}};
  std::vector<sash::obs::BenchRun> runs = {{"BM_Thing", 10, 5.0, 4.0}};
  fs::create_directories(cache_);
  fs::path doc = cache_ / "BENCH_serve.json";
  std::ofstream(doc) << sash::obs::BenchReportJson("serve", runs, metrics);

  RunResult r = RunCli(Sash("report '" + doc.string() + "'"));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("(sash-bench-v1) =="), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("  bench: serve\n"), std::string::npos) << r.output;
  for (const char* line : {"serve.requests", "serve.warm_p50_us"}) {
    EXPECT_NE(r.output.find(line), std::string::npos) << r.output;
  }
  EXPECT_NE(r.output.find(" 17\n"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find(" 120\n"), std::string::npos) << r.output;
}

// A journaled batch leaves the journal and its two views behind, and `sash
// report --journal` summarizes the journal alone.
TEST_F(CliGoldenTest, AnalyzeJournalEmitsValidArtifactsAndReport) {
  fs::path dir = fs::temp_directory_path() / ("sash_journal_smoke_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  std::string journal = (dir / "events.jsonl").string();
  std::string trace = (dir / "trace.json").string();
  std::string folded = (dir / "profile.folded").string();
  RunResult r = RunCli(Sash("analyze -j4 --no-cache --journal '" + journal + "' --trace-out '" +
                            trace + "' --folded '" + folded + "' ."));
  EXPECT_EQ(r.exit_code, 1);  // The corpus has findings.

  // The journal must round-trip its own schema validator...
  std::string jsonl = ReadFile(journal);
  ASSERT_FALSE(jsonl.empty());
  EXPECT_TRUE(sash::obs::EventJournal::ValidateJsonl(jsonl).empty());
  // ...the trace must be well-formed Chrome trace JSON...
  std::optional<sash::obs::JsonValue> doc = sash::obs::JsonValue::Parse(ReadFile(trace));
  ASSERT_TRUE(doc.has_value());
  ASSERT_NE(doc->Find("traceEvents"), nullptr);

  // One clock: every "X" span in the trace is the start and duration of a
  // journal event — a span's or phase's (ts_us, a), or a task_start's ts_us
  // with its task_stop's b.
  std::set<std::pair<int64_t, int64_t>> journaled;
  std::map<int64_t, int64_t> task_start_us;  // tid -> start.
  std::istringstream lines(jsonl);
  for (std::string line; std::getline(lines, line);) {
    std::optional<sash::obs::JsonValue> e = sash::obs::JsonValue::Parse(line);
    ASSERT_TRUE(e.has_value());
    if (e->Find("ev") == nullptr) {
      continue;  // The header.
    }
    auto num = [&e](const char* key) { return static_cast<int64_t>(e->Find(key)->number); };
    const std::string& ev = e->Find("ev")->string;
    if (ev == "span" || ev == "phase") {
      journaled.insert({num("ts_us"), num("a")});
    } else if (ev == "task_start") {
      task_start_us[num("tid")] = num("ts_us");
    } else if (ev == "task_stop") {
      journaled.insert({task_start_us[num("tid")], num("b")});
    }
  }
  int spans = 0;
  for (const sash::obs::JsonValue& e : doc->Find("traceEvents")->array) {
    if (e.Find("ph")->string != "X") {
      continue;
    }
    ++spans;
    std::pair<int64_t, int64_t> span{static_cast<int64_t>(e.Find("ts")->number),
                                     static_cast<int64_t>(e.Find("dur")->number)};
    EXPECT_EQ(journaled.count(span), 1u)
        << e.Find("name")->string << " ts=" << span.first << " dur=" << span.second;
  }
  EXPECT_GT(spans, 0);
  // ...and the folded stacks must contain at least one analyze frame.
  EXPECT_NE(ReadFile(folded).find("task"), std::string::npos);

  RunResult rep = RunCli(Sash("report --journal '" + journal + "'"));
  EXPECT_EQ(rep.exit_code, 0);
  EXPECT_NE(rep.output.find("== workers ==\n  worker "), std::string::npos) << rep.output;
  EXPECT_NE(rep.output.find("== phases ==\n"), std::string::npos) << rep.output;
  EXPECT_NE(rep.output.find("  symex "), std::string::npos) << rep.output;
  EXPECT_EQ(rep.output.find("contention"), std::string::npos) << rep.output;
  fs::remove_all(dir);
}

// One file runs inline, without a pool; the artifacts a user asks for must
// not notice.
TEST_F(CliGoldenTest, SingleFileArtifactsAndWarmStats) {
  fs::path dir = fs::temp_directory_path() / ("sash_single_art_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  std::string journal = (dir / "events.jsonl").string();
  std::string trace = (dir / "trace.json").string();
  RunResult cold = RunCli(Sash("analyze " + CacheFlag() + " --journal '" + journal +
                               "' --trace-out '" + trace + "' loop.sh"));
  EXPECT_LE(cold.exit_code, 1);
  std::string jsonl = ReadFile(journal);
  ASSERT_FALSE(jsonl.empty());
  EXPECT_TRUE(sash::obs::EventJournal::ValidateJsonl(jsonl).empty());
  std::optional<sash::obs::JsonValue> doc = sash::obs::JsonValue::Parse(ReadFile(trace));
  ASSERT_TRUE(doc.has_value());
  EXPECT_NE(doc->Find("traceEvents"), nullptr);

  // Warm rerun: --stats still reports the hit and the process's peak RSS.
  RunResult warm = RunCli(Sash("analyze --stats " + CacheFlag() + " loop.sh 2>&1 >/dev/null"));
  EXPECT_EQ(warm.exit_code, cold.exit_code);
  EXPECT_NE(warm.output.find("cache.hits"), std::string::npos) << warm.output;
  EXPECT_NE(warm.output.find("process.peak_rss_kb"), std::string::npos) << warm.output;

  // A batch's --stats sums the per-file structs after the pool drains. Cold:
  // every file was analyzed here, and the symex totals are the sums (the
  // peak: the maximum) of the reports' own engine stats.
  const std::string stats_path = (dir / "stats.txt").string();
  RunResult batch =
      RunCli(Sash("analyze -j2 --no-cache --stats --format=json . 2>'" + stats_path + "'"));
  EXPECT_EQ(batch.exit_code, 1);
  const std::string stats = ReadFile(stats_path);
  std::optional<sash::obs::JsonValue> batch_doc = sash::obs::JsonValue::Parse(batch.output);
  ASSERT_TRUE(batch_doc.has_value()) << batch.output;
  const std::vector<sash::obs::JsonValue>& results = batch_doc->Find("results")->array;
  ASSERT_EQ(results.size(), 8u);
  int64_t commands = 0;
  int64_t peak = 0;
  for (const sash::obs::JsonValue& r : results) {
    const sash::obs::JsonValue* engine = r.Find("report")->Find("stats")->Find("engine");
    commands += static_cast<int64_t>(engine->Find("commands_executed")->number);
    peak = std::max(peak, static_cast<int64_t>(engine->Find("states_peak")->number));
  }
  EXPECT_EQ(StatValue(stats, "analyzer.runs"), 8) << stats;
  EXPECT_EQ(StatValue(stats, "batch.files"), 8) << stats;
  EXPECT_EQ(StatValue(stats, "symex.commands_executed"), commands) << stats;
  EXPECT_EQ(StatValue(stats, "symex.states_peak"), peak) << stats;
  EXPECT_EQ(StatValue(stats, "cache.misses"), 0) << stats;  // --no-cache: no cache reads.

  // Warm: every file is a cache hit and nothing is analyzed.
  const std::string batch_warm = Sash("analyze -j2 --stats " + CacheFlag() + " . 2>&1 >/dev/null");
  RunCli(batch_warm);
  RunResult warm_batch = RunCli(batch_warm);
  EXPECT_EQ(StatValue(warm_batch.output, "cache.hits"), 8) << warm_batch.output;
  EXPECT_EQ(StatValue(warm_batch.output, "cache.misses"), 0) << warm_batch.output;
  EXPECT_EQ(StatValue(warm_batch.output, "analyzer.runs"), -1) << warm_batch.output;
  fs::remove_all(dir);
}

TEST_F(CliGoldenTest, WarmRunIsByteIdenticalIncludingTimingsStripped) {
  // The end-to-end spelling of the differential guarantee: cold and warm
  // single-file JSON runs print the same bytes even BEFORE normalization,
  // because warm runs replay the cold run's stored report verbatim.
  std::string cmd = Sash("analyze --format=json " + CacheFlag() + " loop.sh");
  RunResult cold = RunCli(cmd);
  RunResult warm = RunCli(cmd);
  EXPECT_EQ(cold.exit_code, warm.exit_code);
  EXPECT_EQ(cold.output, warm.output);
}

}  // namespace
