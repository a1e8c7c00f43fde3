// Concurrency stress for the batch driver and the shared on-disk cache:
// several drivers (each with its own -j8-style pool) hammer overlapping file
// sets against one cache directory at once. Properties:
//   - every cache file on disk is a complete v2 entry (atomic rename means
//     no reader ever sees a torn entry);
//   - duplicate work is bounded: total misses never exceed drivers × unique
//     scripts, and once the dust settles a warm pass is 100% hits;
//   - every driver's reports for a given script are byte-identical.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "batch/batch.h"
#include "batch/cache.h"
#include "json_normalize.h"
#include "util/thread_pool.h"

namespace sash::batch {
namespace {

namespace fs = std::filesystem;

class BatchStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / ("sash_stress_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(BatchStressTest, ConcurrentDriversSharedCacheNoTornFilesBoundedWork) {
  // A corpus large enough that drivers genuinely overlap in time.
  constexpr int kScripts = 40;
  constexpr int kDrivers = 4;
  std::vector<std::string> files;
  for (int i = 0; i < kScripts; ++i) {
    fs::path p = dir_ / ("s" + std::to_string(i) + ".sh");
    std::ofstream out(p);
    out << "# script " << i << "\n";
    out << "for f in a b c; do\n  echo \"$f:" << i << "\"\ndone\n";
    if (i % 3 == 0) {
      out << "rm -r \"$DIR" << i << "/cache\"\n";
    }
    if (i % 4 == 0) {
      out << "cat input | grep x" << i << "\n";
    }
    files.push_back(p.string());
  }
  fs::path cache_dir = dir_ / "cache";

  // Each driver analyzes an overlapping window of the corpus, all at once.
  std::vector<BatchResult> results(kDrivers);
  std::vector<std::vector<std::string>> slices(kDrivers);
  for (int d = 0; d < kDrivers; ++d) {
    for (int i = 0; i < kScripts * 3 / 4; ++i) {
      slices[d].push_back(files[(d * kScripts / 4 + i) % kScripts]);
    }
  }
  std::vector<std::thread> threads;
  for (int d = 0; d < kDrivers; ++d) {
    threads.emplace_back([&, d] {
      BatchOptions options;
      options.jobs = 8;
      options.cache_dir = cache_dir;
      BatchDriver driver(options);
      results[d] = driver.Run(slices[d]);
    });
  }
  for (auto& t : threads) {
    t.join();
  }

  // Every file in every slice was analyzed successfully.
  int64_t total_misses = 0;
  for (int d = 0; d < kDrivers; ++d) {
    ASSERT_EQ(results[d].files.size(), slices[d].size());
    for (const auto& f : results[d].files) {
      EXPECT_TRUE(f.ok) << f.path << ": " << f.error;
    }
    total_misses += results[d].cache_misses;
  }
  // Duplicate-work bound: in the worst interleaving each driver misses each
  // unique script once; it can never exceed that.
  EXPECT_LE(total_misses, static_cast<int64_t>(kDrivers) * kScripts);
  EXPECT_GE(total_misses, static_cast<int64_t>(kScripts) * 3 / 4);  // Someone did the work.

  // No torn files: every entry on disk opens with the v2 header and decodes
  // whole (its lengths and checksum cover every byte), and no temp files
  // were left behind.
  int entries = 0;
  for (const auto& e : fs::recursive_directory_iterator(cache_dir)) {
    if (!e.is_regular_file()) {
      continue;
    }
    EXPECT_EQ(e.path().extension(), ".json") << "leftover temp file: " << e.path();
    std::ifstream in(e.path());
    std::string payload((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    EXPECT_EQ(payload.substr(0, payload.find(' ')), kAnalysisCacheSchema) << e.path();
    EXPECT_TRUE(DecodeAnalysisEntry(payload).has_value()) << "torn cache entry: " << e.path();
    ++entries;
  }
  EXPECT_EQ(entries, kScripts);  // Exactly one entry per unique script.

  // All drivers agree on every script they share — modulo wall-clock fields:
  // when two drivers race to a miss on the same key, each reports its own
  // fresh analysis, identical except for timings.
  std::map<std::string, std::string> canonical_json;
  for (int d = 0; d < kDrivers; ++d) {
    for (const auto& f : results[d].files) {
      std::string normalized = sash::testing::NormalizeJson(f.report_json);
      auto [it, inserted] = canonical_json.emplace(f.path, normalized);
      if (!inserted) {
        EXPECT_EQ(it->second, normalized) << f.path;
      }
    }
  }

  // The dust has settled: a warm pass over everything is pure hits, and two
  // warm passes are byte-identical (they replay the same stored entries).
  BatchOptions warm_options;
  warm_options.jobs = 8;
  warm_options.cache_dir = cache_dir;
  BatchDriver warm(warm_options);
  BatchResult warm_result = warm.Run(files);
  EXPECT_EQ(warm_result.cache_hits, kScripts);
  EXPECT_EQ(warm_result.cache_misses, 0);
  BatchResult warm_again = warm.Run(files);
  for (size_t i = 0; i < warm_result.files.size(); ++i) {
    const FileResult& f = warm_result.files[i];
    ASSERT_TRUE(f.ok);
    EXPECT_TRUE(f.cached);
    EXPECT_EQ(sash::testing::NormalizeJson(f.report_json), canonical_json[f.path]);
    EXPECT_EQ(f.report_json, warm_again.files[i].report_json);
  }
}

TEST_F(BatchStressTest, ThreadPoolRunsEveryTaskExactlyOnce) {
  util::ThreadPool pool(8);
  EXPECT_EQ(pool.size(), 8);
  constexpr int kTasks = 2000;
  std::vector<std::atomic<int>> ran(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&ran, i] { ran[i].fetch_add(1, std::memory_order_relaxed); });
  }
  pool.Wait();
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(ran[i].load(), 1) << "task " << i;
  }

  // Wait() is reusable: a second wave works on the same pool.
  std::atomic<int> second{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&second] { second.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.Wait();
  EXPECT_EQ(second.load(), 100);
}

TEST_F(BatchStressTest, NestedSubmitFromWorkerCompletes) {
  // Tasks that spawn tasks (the in-worker fast path) must all run before
  // Wait() returns.
  util::ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&pool, &count] {
      count.fetch_add(1, std::memory_order_relaxed);
      pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST_F(BatchStressTest, ConcurrentPutsOfSameKeyAreIdempotent) {
  // Many threads racing to install the same key: the entry must end up as
  // exactly one valid document, and every Get must observe either a miss or
  // complete bytes — never a prefix.
  fs::path cache_dir = dir_ / "cache2";
  const std::string key(64, 'a');
  const std::string payload = R"({"schema":"sash-cache-v1","data":")" + std::string(4096, 'x') + "\"}";
  std::vector<std::thread> threads;
  std::atomic<int> bad_reads{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      Cache cache(cache_dir);
      for (int i = 0; i < 50; ++i) {
        cache.Put("analysis", key, payload);
        std::optional<std::string> got = cache.Get("analysis", key);
        if (got.has_value() && *got != payload) {
          bad_reads.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(bad_reads.load(), 0);
  Cache cache(cache_dir);
  std::optional<std::string> final_read = cache.Get("analysis", key);
  ASSERT_TRUE(final_read.has_value());
  EXPECT_EQ(*final_read, payload);
}

TEST_F(BatchStressTest, ConcurrentCacheDirCreationBothSucceed) {
  // Regression: two drivers pointed at the same not-yet-existing --cache-dir
  // race to create it. With check-then-create (create_directories) one racer
  // could observe EEXIST mid-window and fail its first Put; EnsureDirectories
  // treats EEXIST as victory, so every racer's writes must land.
  constexpr int kRacers = 8;
  constexpr int kRounds = 25;
  for (int round = 0; round < kRounds; ++round) {
    fs::path cache_dir = dir_ / ("race" + std::to_string(round)) / "deep" / "cache";
    std::vector<std::thread> racers;
    std::atomic<int> failed_puts{0};
    std::atomic<int> barrier{0};
    for (int t = 0; t < kRacers; ++t) {
      racers.emplace_back([&, t] {
        // Line every racer up so the mkdir storm is actually concurrent.
        barrier.fetch_add(1, std::memory_order_acq_rel);
        while (barrier.load(std::memory_order_acquire) < kRacers) {
        }
        Cache cache(cache_dir);
        const std::string key = std::string(63, 'b') + static_cast<char>('0' + t);
        if (!cache.Put("analysis", key, "{\"racer\":" + std::to_string(t) + "}")) {
          failed_puts.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (auto& t : racers) {
      t.join();
    }
    EXPECT_EQ(failed_puts.load(), 0) << "round " << round;
    // Every racer's entry is present and intact.
    Cache cache(cache_dir);
    for (int t = 0; t < kRacers; ++t) {
      const std::string key = std::string(63, 'b') + static_cast<char>('0' + t);
      std::optional<std::string> got = cache.Get("analysis", key);
      ASSERT_TRUE(got.has_value()) << "round " << round << " racer " << t;
      EXPECT_EQ(*got, "{\"racer\":" + std::to_string(t) + "}");
    }
  }
}

TEST_F(BatchStressTest, EnsureDirectoriesConcurrentAndEdgeCases) {
  // Direct unit coverage of the helper the race fix rides on.
  EXPECT_TRUE(EnsureDirectories(dir_ / "x" / "y" / "z"));
  EXPECT_TRUE(fs::is_directory(dir_ / "x" / "y" / "z"));
  EXPECT_TRUE(EnsureDirectories(dir_ / "x" / "y" / "z"));  // Idempotent.
  EXPECT_TRUE(EnsureDirectories(fs::path()));              // Empty = nothing to do.
  // A component that exists as a *file* is a real failure, not a race.
  fs::path blocker = dir_ / "file";
  std::ofstream(blocker) << "not a directory";
  EXPECT_FALSE(EnsureDirectories(blocker / "child"));
  // Many threads creating the same deep path simultaneously all succeed.
  fs::path deep = dir_ / "many" / "levels" / "down";
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 16; ++t) {
    threads.emplace_back([&] {
      if (!EnsureDirectories(deep)) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(fs::is_directory(deep));
}

}  // namespace
}  // namespace sash::batch
