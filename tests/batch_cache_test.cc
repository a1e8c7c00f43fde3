// Differential tests for the batch driver and the incremental cache: warm
// results must be byte-identical to the cold run that produced them, fresh
// runs must agree with cached runs on everything non-volatile, and the cache
// key must be exactly as sensitive as the analysis itself — touching the
// script, the options, the annotations, or the corpus flips it; touching
// nothing reuses it.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "batch/batch.h"
#include "batch/cache.h"
#include "batch/commit_queue.h"
#include "json_normalize.h"
#include "util/faultinject.h"
#include "util/file.h"
#include "util/sha256.h"

namespace sash::batch {
namespace {

namespace fs = std::filesystem;

// A per-test temp directory, removed on teardown.
class BatchCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("sash_batch_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path WriteScript(const std::string& name, const std::string& content) {
    fs::path p = dir_ / name;
    std::ofstream(p) << content;
    return p;
  }

  fs::path CacheDir() const { return dir_ / "cache"; }

  BatchOptions Options(int jobs = 1) {
    BatchOptions o;
    o.jobs = jobs;
    o.cache_dir = CacheDir();
    return o;
  }

  fs::path dir_;
};

// The example corpus shipped in the repo, plus generated variants: every
// script analyzed warm must reproduce the cold bytes exactly.
std::vector<std::pair<std::string, std::string>> ExampleCorpus() {
  std::vector<std::pair<std::string, std::string>> corpus = {
      {"steam", "STEAMROOT=\"$(cd \"${0%/*}\" && echo \"$PWD\")\"\nrm -rf \"$STEAMROOT/\"*\n"},
      {"guarded", "if [ -n \"$ROOT\" ]; then\n  rm -r \"$ROOT/tmp\"\nfi\n"},
      {"pipeline", "lsb_release -a | grep Release | cut -f2\n"},
      {"install", "mkdir /opt/x\ntouch /opt/x/y\ncp /opt/x/y /opt/z\n"},
      {"loop", "for f in a b c; do\n  cat \"/etc/$f.conf\"\ndone\n"},
      {"empty", ""},
      {"comment_only", "# nothing here\n"},
      {"parse_error", "if true; then\n"},
  };
  // Generated variants: the same scripts with appended no-op lines, so near
  // -identical content still gets distinct cache entries.
  size_t base = corpus.size();
  for (size_t i = 0; i < base; ++i) {
    corpus.push_back({corpus[i].first + "_v2", corpus[i].second + "\necho variant\n"});
  }
  return corpus;
}

TEST_F(BatchCacheTest, WarmReportsAreByteIdenticalToColdAcrossCorpus) {
  auto corpus = ExampleCorpus();
  std::vector<std::string> files;
  for (const auto& [name, content] : corpus) {
    files.push_back(WriteScript(name + ".sh", content).string());
  }

  BatchDriver driver(Options(2));
  BatchResult cold = driver.Run(files);
  ASSERT_EQ(cold.files.size(), corpus.size());
  EXPECT_EQ(cold.cache_hits, 0);
  EXPECT_EQ(cold.cache_misses, static_cast<int64_t>(corpus.size()));

  BatchResult warm = driver.Run(files);
  EXPECT_EQ(warm.cache_hits, static_cast<int64_t>(corpus.size()));
  EXPECT_EQ(warm.cache_misses, 0);
  for (size_t i = 0; i < corpus.size(); ++i) {
    ASSERT_TRUE(cold.files[i].ok);
    ASSERT_TRUE(warm.files[i].ok);
    EXPECT_FALSE(cold.files[i].cached);
    EXPECT_TRUE(warm.files[i].cached) << files[i];
    // The headline property: the cached path reproduces the cold run's bytes.
    EXPECT_EQ(cold.files[i].report_json, warm.files[i].report_json) << files[i];
    EXPECT_EQ(cold.files[i].report_text, warm.files[i].report_text) << files[i];
    EXPECT_EQ(cold.files[i].warnings_or_worse, warm.files[i].warnings_or_worse);
  }

  // And a cache-disabled re-analysis agrees on everything non-volatile.
  BatchOptions no_cache = Options(1);
  no_cache.use_cache = false;
  BatchDriver fresh(no_cache);
  BatchResult again = fresh.Run(files);
  for (size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_EQ(sash::testing::NormalizeJson(again.files[i].report_json),
              sash::testing::NormalizeJson(warm.files[i].report_json))
        << files[i];
    EXPECT_EQ(again.files[i].report_text, warm.files[i].report_text);
  }
}

// The commit queue moved cache installs off the workers and onto a single
// committer thread; this pins the invariant that makes that safe to do: a
// parallel cold run's Flush-before-return leaves the cache exactly as the
// synchronous path would have, so a *fresh* driver's warm run serves every
// file from cache, byte-identical to the cold output.
TEST_F(BatchCacheTest, ParallelColdRunCommitsEverythingBeforeReturning) {
  auto corpus = ExampleCorpus();
  std::vector<std::string> files;
  for (const auto& [name, content] : corpus) {
    files.push_back(WriteScript(name + ".sh", content).string());
  }

  BatchDriver cold_driver(Options(4));
  BatchResult cold = cold_driver.Run(files);
  EXPECT_EQ(cold.cache_misses, static_cast<int64_t>(corpus.size()));

  // Every miss went through the queue, and every enqueue was committed by
  // the time Run returned.
  EXPECT_EQ(cold.commit.enqueued, static_cast<int64_t>(corpus.size()));
  EXPECT_EQ(cold.commit.committed, static_cast<int64_t>(corpus.size()));
  EXPECT_EQ(cold.cache.misses, static_cast<int64_t>(corpus.size()));
  EXPECT_EQ(cold.analysis.runs, static_cast<int>(corpus.size()));

  BatchDriver warm_driver(Options(4));  // Fresh driver: only the disk speaks.
  BatchResult warm = warm_driver.Run(files);
  EXPECT_EQ(warm.cache_hits, static_cast<int64_t>(corpus.size()));
  EXPECT_EQ(warm.cache_misses, 0);
  for (size_t i = 0; i < corpus.size(); ++i) {
    ASSERT_TRUE(warm.files[i].ok);
    EXPECT_TRUE(warm.files[i].cached) << files[i];
    EXPECT_EQ(cold.files[i].report_json, warm.files[i].report_json) << files[i];
    EXPECT_EQ(cold.files[i].report_text, warm.files[i].report_text) << files[i];
  }
}

// One file without --isolate runs inline on the calling thread: no pool, no
// committer, a synchronous Cache::Put. The entry must still be durable when
// RunSources returns, and the run must still be accounted like a batch.
TEST_F(BatchCacheTest, SingleFileRunsInlineAndCommitsBeforeReturning) {
  const std::string source = "rm -rf \"$UNSET_DIR/\"*\n";
  BatchOptions options = Options(/*jobs=*/0);
  BatchResult cold = BatchDriver(options).RunSources({{"solo.sh", source}});
  ASSERT_EQ(cold.files.size(), 1u);
  ASSERT_TRUE(cold.files[0].ok);
  EXPECT_FALSE(cold.files[0].cached);
  EXPECT_EQ(cold.cache_misses, 1);

  // Durable on return, without a committer in between.
  Cache cache(CacheDir());
  EXPECT_TRUE(cache.Get("analysis", AnalysisKey(source, options.analyzer)).has_value());
  EXPECT_EQ(cold.commit.enqueued, 0);  // No queue: the Put ran inline.
  EXPECT_EQ(cold.jobs, 1);
  EXPECT_EQ(cold.steals, 0);
  EXPECT_EQ(cold.cache.misses, 1);
  EXPECT_EQ(cold.analysis.runs, 1);
  EXPECT_EQ(cold.analysis.engine.commands_executed,
            cold.files[0].stats.engine.commands_executed);

  // A fresh driver replays the file from disk, byte for byte.
  BatchResult warm = BatchDriver(Options(0)).RunSources({{"solo.sh", source}});
  ASSERT_TRUE(warm.files[0].ok);
  EXPECT_TRUE(warm.files[0].cached);
  EXPECT_EQ(warm.cache_hits, 1);
  EXPECT_EQ(warm.files[0].report_json, cold.files[0].report_json);
  EXPECT_EQ(warm.files[0].report_text, cold.files[0].report_text);
  EXPECT_EQ(warm.ExitCode(), cold.ExitCode());
}

TEST_F(BatchCacheTest, SingleIsolatedFileStillForksAWorker) {
  // A crash plan only ever crashes inside a forked worker; outside one it
  // degrades to a plain failure. "crashed" therefore proves the fork.
  util::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(util::FaultPlan::Parse("analyze.file~solo.sh=crash", &plan, &error)) << error;
  util::FaultInjector::Install(plan);
  BatchOptions options = Options(0);
  options.isolate = true;
  BatchResult r = BatchDriver(options).RunSources({{"solo.sh", "echo hi\n"}});
  util::FaultInjector::Uninstall();
  ASSERT_EQ(r.files.size(), 1u);
  EXPECT_EQ(r.files[0].status, FileStatus::kCrashed);
  EXPECT_EQ(r.files[0].degraded_reason, "crashed:SIGSEGV");
  EXPECT_EQ(r.ExitCode(), 2);
  EXPECT_EQ(r.crash.workers, 1);
}

TEST_F(BatchCacheTest, SingleUnreadableFileStillReportsFailed) {
  BatchResult r = BatchDriver(Options(0)).Run({(dir_ / "missing.sh").string()});
  ASSERT_EQ(r.files.size(), 1u);
  EXPECT_FALSE(r.files[0].ok);
  EXPECT_EQ(r.files[0].status, FileStatus::kFailed);
  EXPECT_FALSE(r.files[0].error.empty());
  EXPECT_EQ(r.ExitCode(), 2);
  EXPECT_EQ(r.CountStatus(FileStatus::kFailed), 1u);
  EXPECT_EQ(r.analysis.runs, 0);
}

// The cache counts with relaxed atomics, and each hit also lands on the
// global journal as a "cache.hits" counter sample (the trace's track).
TEST_F(BatchCacheTest, CacheCountsAndJournalsHits) {
  obs::EventJournal journal(1024);
  obs::EventJournal::SetGlobal(&journal);
  Cache cache(CacheDir());
  const std::string key(64, 'a');
  EXPECT_FALSE(cache.Get("analysis", key).has_value());
  ASSERT_TRUE(cache.Put("analysis", key, "payload"));
  EXPECT_TRUE(cache.Get("analysis", key).has_value());
  EXPECT_TRUE(cache.Get("analysis", key).has_value());
  cache.CountCorrupt();
  obs::EventJournal::SetGlobal(nullptr);

  const Cache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.corrupt_entries, 1);
  EXPECT_EQ(stats.retries, 0);
  EXPECT_FALSE(stats.read_only);
  std::vector<int64_t> samples;
  for (const obs::Event& e : journal.Drain()) {
    if (e.kind == obs::EventKind::kCounter && std::string(e.name) == "cache.hits") {
      samples.push_back(e.a);
    }
  }
  EXPECT_EQ(samples, (std::vector<int64_t>{1, 2}));
}

// The queue's own contract, exercised directly: concurrent producers on
// non-pool threads, interleaved flushes, and a drain on destruction.
TEST_F(BatchCacheTest, CommitQueueDrainsConcurrentProducers) {
  Cache cache(CacheDir());
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 50;
  {
    CacheCommitQueue queue(&cache, kProducers);
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([p, &queue] {
        for (int i = 0; i < kPerProducer; ++i) {
          std::string key =
              util::Sha256Hex("commit_queue_" + std::to_string(p) + "_" + std::to_string(i));
          queue.Enqueue("analysis", key, "payload_" + std::to_string(p * 1000 + i));
        }
      });
    }
    for (auto& t : producers) {
      t.join();
    }
    queue.Flush();
    EXPECT_EQ(queue.enqueued(), kProducers * kPerProducer);
    EXPECT_EQ(queue.committed(), kProducers * kPerProducer);
    // After Flush every entry is durably readable — not merely queued.
    for (int p = 0; p < kProducers; ++p) {
      for (int i = 0; i < kPerProducer; ++i) {
        std::string key =
            util::Sha256Hex("commit_queue_" + std::to_string(p) + "_" + std::to_string(i));
        std::optional<std::string> got = cache.Get("analysis", key);
        ASSERT_TRUE(got.has_value()) << p << ":" << i;
        EXPECT_EQ(*got, "payload_" + std::to_string(p * 1000 + i));
      }
    }
    // Destructor path: entries enqueued after the last Flush still land.
    queue.Enqueue("analysis", util::Sha256Hex("commit_queue_last"), "last");
  }
  EXPECT_TRUE(cache.Get("analysis", util::Sha256Hex("commit_queue_last")).has_value());
}

TEST_F(BatchCacheTest, TouchingScriptInvalidatesExactlyThatEntry) {
  std::vector<std::string> files = {WriteScript("a.sh", "echo one\n").string(),
                                    WriteScript("b.sh", "echo two\n").string(),
                                    WriteScript("c.sh", "echo three\n").string()};
  BatchDriver driver(Options());
  driver.Run(files);

  std::ofstream(files[1]) << "echo two\necho touched\n";
  BatchResult r = driver.Run(files);
  EXPECT_EQ(r.cache_hits, 2);
  EXPECT_EQ(r.cache_misses, 1);
  EXPECT_TRUE(r.files[0].cached);
  EXPECT_FALSE(r.files[1].cached);
  EXPECT_TRUE(r.files[2].cached);
}

TEST_F(BatchCacheTest, ChangingAnalysisFlagsInvalidatesAllEntries) {
  std::vector<std::string> files = {WriteScript("a.sh", "echo one\n").string(),
                                    WriteScript("b.sh", "rm -r \"$X/y\"\n").string()};
  BatchDriver driver(Options());
  driver.Run(files);

  BatchOptions with_lint = Options();
  with_lint.analyzer.enable_lint = true;
  BatchDriver lint_driver(with_lint);
  BatchResult r = lint_driver.Run(files);
  EXPECT_EQ(r.cache_hits, 0);
  EXPECT_EQ(r.cache_misses, 2);

  // The original option set still hits its own entries (distinct keyspace).
  BatchResult back = driver.Run(files);
  EXPECT_EQ(back.cache_hits, 2);
}

TEST_F(BatchCacheTest, ChangingAnnotationsInvalidatesEntries) {
  std::vector<std::string> files = {WriteScript("a.sh", "tool | grep x\n").string()};
  BatchDriver driver(Options());
  driver.Run(files);
  EXPECT_EQ(driver.Run(files).cache_hits, 1);

  BatchOptions annotated = Options();
  annotated.annotations_text = "command tool :: /x+/\n";
  BatchDriver annotated_driver(annotated);
  BatchResult r = annotated_driver.Run(files);
  EXPECT_EQ(r.cache_hits, 0);
  EXPECT_EQ(r.cache_misses, 1);
}

TEST_F(BatchCacheTest, KeyDependsOnCorpusOptionsVersionAndContent) {
  core::AnalyzerOptions base;
  std::string k1 = AnalysisKey("echo hi\n", base);
  EXPECT_EQ(k1.size(), 64u);
  EXPECT_EQ(k1, AnalysisKey("echo hi\n", base));  // Deterministic.
  EXPECT_NE(k1, AnalysisKey("echo ho\n", base));  // Content-sensitive.
  core::AnalyzerOptions no_symex = base;
  no_symex.enable_symex = false;
  EXPECT_NE(k1, AnalysisKey("echo hi\n", no_symex));  // Options-sensitive.
  EXPECT_NE(k1, AnalysisKey("echo hi\n", base, "command tool :: /x/\n"));  // Annotations.
}

// Keys are content addresses: changing how they are computed must not change
// their bytes, or every cache on disk goes cold. The pinned values come from
// the iostream and run-time corpus hashing this code replaced.
TEST_F(BatchCacheTest, AnalysisKeyBytesArePinned) {
  std::string steam;
  ASSERT_TRUE(util::ReadFile(std::string(SASH_SCRIPTS_DIR) + "/steam_updater.sh", &steam));
  EXPECT_EQ(AnalysisKey(steam, core::AnalyzerOptions()),
            "05fe23c9c3a0944b7e2aaae0ed3918ab161eb48d72e42ff67af05da421889eca");

  core::AnalyzerOptions tuned;
  tuned.enable_lint = true;
  tuned.idempotence_state_cap = -3;
  tuned.max_input_bytes = 123456789012;
  tuned.engine.report_unset_vars = false;
  tuned.engine.var_patterns = {{"A", "x+"}, {"B", ""}};
  tuned.lint.backtick = false;
  tuned.lint.portability = false;
  EXPECT_EQ(OptionsFingerprint(tuned),
            "lint=1;symex=1;stream=1;annot=1;idem=0;idem_cap=-3;coach=0;max_in=123456789012;"
            "e.max_states=128;e.unroll=2;e.depth=16;e.for=8;e.path=/?([^/\\n]*/)*[^/\\n]+;"
            "e.pos=3;e.unset=0;e.merge=1;e.lib=builtin;e.var:A=x+;e.var:B=;l=11101110");
  EXPECT_EQ(AnalysisKey(steam, tuned, "command tool :: /x/\n"),
            "bdf0838f4e55307c4c9963b67deecd75cd9c6cf559e8bcf07582053ef5d88c06");
}

// A v2 entry decodes only when every byte is as written: any single flipped
// byte, any truncation, trailing bytes, or lengths that split the body
// differently all decode to a miss.
TEST_F(BatchCacheTest, V2EntryDecodesOnlyWhenIntact) {
  AnalysisEntry entry;
  entry.report_json = R"({"schema":"sash-analysis-v1","findings":[{"code":"X"}]})";
  entry.report_text = "warning: X\nline two\n";
  entry.warnings_or_worse = 2;
  entry.degraded_reason = "state-cap";
  const std::string payload = EncodeAnalysisEntry("k", entry);
  ASSERT_EQ(payload.substr(0, payload.find(' ')), kAnalysisCacheSchema);
  const size_t newline = payload.find('\n');
  EXPECT_EQ(payload.substr(newline + 1), entry.report_json + entry.report_text);
  std::optional<AnalysisEntry> back = DecodeAnalysisEntry(payload);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->report_json, entry.report_json);
  EXPECT_EQ(back->report_text, entry.report_text);
  EXPECT_EQ(back->warnings_or_worse, 2);
  EXPECT_EQ(back->degraded_reason, "state-cap");

  for (size_t i = 0; i < payload.size(); ++i) {
    for (unsigned char mask : {0x01, 0x20, 0x80}) {
      std::string flipped = payload;
      flipped[i] = static_cast<char>(flipped[i] ^ mask);
      EXPECT_FALSE(DecodeAnalysisEntry(flipped).has_value()) << "byte " << i << " ^ " << +mask;
    }
  }
  for (size_t size = 0; size < payload.size(); ++size) {
    EXPECT_FALSE(DecodeAnalysisEntry(payload.substr(0, size)).has_value()) << size;
  }
  EXPECT_FALSE(DecodeAnalysisEntry(payload + "x").has_value());

  // Same body, one byte moved from the JSON length to the text length.
  const std::string json_len = std::to_string(entry.report_json.size());
  const std::string text_len = std::to_string(entry.report_text.size());
  std::string header = payload.substr(0, newline);
  const size_t at = header.find(" " + json_len + " " + text_len + " ");
  ASSERT_NE(at, std::string::npos);
  header.replace(at, json_len.size() + text_len.size() + 3,
                 " " + std::to_string(entry.report_json.size() - 1) + " " +
                     std::to_string(entry.report_text.size() + 1) + " ");
  EXPECT_FALSE(DecodeAnalysisEntry(header + payload.substr(newline)).has_value());
}

TEST_F(BatchCacheTest, OptionsFingerprintCoversEngineAndLintKnobs) {
  core::AnalyzerOptions a;
  core::AnalyzerOptions b;
  b.engine.loop_unroll = 7;
  EXPECT_NE(OptionsFingerprint(a), OptionsFingerprint(b));
  core::AnalyzerOptions c;
  c.lint.backtick = false;
  EXPECT_NE(OptionsFingerprint(a), OptionsFingerprint(c));
  core::AnalyzerOptions d;
  d.engine.var_patterns.emplace_back("X", "a+");
  EXPECT_NE(OptionsFingerprint(a), OptionsFingerprint(d));
}

TEST_F(BatchCacheTest, PartialBatchReportsErrorsAndKeepsAnalyzing) {
  std::vector<std::string> files = {(dir_ / "missing.sh").string(),
                                    WriteScript("ok.sh", "echo fine\n").string()};
  BatchDriver driver(Options(2));
  BatchResult r = driver.Run(files);
  ASSERT_EQ(r.files.size(), 2u);
  EXPECT_FALSE(r.files[0].ok);
  EXPECT_FALSE(r.files[0].error.empty());
  EXPECT_TRUE(r.files[1].ok);
  EXPECT_EQ(r.ExitCode(), 2);

  std::vector<std::string> clean = {files[1]};
  EXPECT_EQ(driver.Run(clean).ExitCode(), 0);
  std::vector<std::string> findings = {
      WriteScript("bad.sh", "rm -r \"$UNSET_DIR/data\"\n").string()};
  EXPECT_EQ(driver.Run(findings).ExitCode(), 1);
}

TEST_F(BatchCacheTest, CorruptCacheEntryIsIgnoredAndRepaired) {
  std::vector<std::string> files = {WriteScript("a.sh", "echo hi\n").string()};
  BatchDriver driver(Options());
  BatchResult cold = driver.Run(files);

  // Corrupt the single entry on disk.
  fs::path entry;
  for (const auto& e : fs::directory_iterator(CacheDir() / "analysis")) {
    entry = e.path();
  }
  ASSERT_FALSE(entry.empty());
  std::ofstream(entry) << "{not json";

  BatchResult repaired = driver.Run(files);
  ASSERT_TRUE(repaired.files[0].ok);
  EXPECT_FALSE(repaired.files[0].cached);  // Fell back to a fresh analysis.
  EXPECT_EQ(repaired.files[0].report_text, cold.files[0].report_text);

  // And the repaired entry serves the next run.
  EXPECT_TRUE(driver.Run(files).files[0].cached);
}

TEST_F(BatchCacheTest, AnalysisEntryRoundTripsVerbatim) {
  AnalysisEntry entry;
  entry.report_json = R"({"schema":"sash-analysis-v1","parse_ok":true,"n":3,"s":"a\"b\nc"})";
  entry.report_text = "line one\nline \"two\"\n";
  entry.warnings_or_worse = 4;
  std::string payload = EncodeAnalysisEntry("k123", entry);
  std::optional<AnalysisEntry> back = DecodeAnalysisEntry(payload);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->report_json, entry.report_json);
  EXPECT_EQ(back->report_text, entry.report_text);
  EXPECT_EQ(back->warnings_or_worse, 4);

  // The status names the worker wire and sash-rpc-v1 carry decode back to
  // the same enum; an unknown name is a failure.
  for (FileStatus status : {FileStatus::kOk, FileStatus::kDegraded, FileStatus::kFailed,
                            FileStatus::kTimedOut, FileStatus::kCrashed}) {
    EXPECT_EQ(FileStatusFromName(FileStatusName(status)), status);
  }
  EXPECT_EQ(FileStatusFromName("bogus"), FileStatus::kFailed);
}

TEST_F(BatchCacheTest, Sha256KnownAnswers) {
  EXPECT_EQ(util::Sha256Hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(util::Sha256Hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  // Multi-block message (>64 bytes) exercises the streaming path.
  EXPECT_EQ(util::Sha256Hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  util::Sha256 h;
  h.Update("ab");
  h.Update("c");
  EXPECT_EQ(h.HexDigest(), util::Sha256Hex("abc"));
}

TEST_F(BatchCacheTest, ExpandInputsWalksDirectoriesSorted) {
  fs::create_directories(dir_ / "tree" / "sub");
  WriteScript("tree/z.sh", "echo z\n");
  WriteScript("tree/a.sh", "echo a\n");
  WriteScript("tree/sub/m.sh", "echo m\n");
  WriteScript("tree/not_a_script.txt", "ignored\n");
  std::vector<std::string> out = ExpandInputs({(dir_ / "tree").string(), "-"});
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(fs::path(out[0]).filename(), "a.sh");
  EXPECT_EQ(fs::path(out[1]).filename(), "m.sh");
  EXPECT_EQ(fs::path(out[2]).filename(), "z.sh");
  EXPECT_EQ(out[3], "-");
}

}  // namespace
}  // namespace sash::batch
