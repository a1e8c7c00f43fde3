// The multi-threaded batch analysis driver: many scripts in, one result set
// out, a work-stealing pool underneath, and the incremental cache consulted
// per script. Independent scripts are embarrassingly parallel (the PaSh
// observation applied to analysis instead of execution); the cache turns the
// second encounter of any (script, options, corpus, version) combination
// into a hash plus a read.
//
//   sash::batch::BatchOptions opt;
//   opt.jobs = 8;
//   sash::batch::BatchDriver driver(opt);
//   sash::batch::BatchResult r = driver.Run(files);
//   for (const auto& f : r.files) { ... }    // input order, regardless of jobs
#ifndef SASH_BATCH_BATCH_H_
#define SASH_BATCH_BATCH_H_

#include <filesystem>
#include <string>
#include <vector>

#include "batch/cache.h"
#include "batch/commit_queue.h"
#include "core/analyzer.h"
#include "obs/obs.h"

namespace sash::batch {

// Schema tag of the multi-file CLI/JSON document.
inline constexpr char kBatchSchema[] = "sash-batch-v1";

struct BatchOptions {
  int jobs = 1;                       // <= 0: hardware concurrency.
  bool use_cache = true;
  std::filesystem::path cache_dir;    // Empty: Cache::DefaultRoot().
  core::AnalyzerOptions analyzer;     // Per-file analyses clone this.
  // External annotation directives (.sasht text), applied to every file and
  // folded into the cache key — editing the annotations invalidates entries.
  std::string annotations_text;
  obs::EventJournal* journal = nullptr;  // Shared event journal (thread-safe).

  // Resilience controls.
  int64_t deadline_ms = 0;  // Per-file analysis wall-clock budget; 0 = none.
                            // An expired file yields a partial degraded
                            // report classified kTimedOut, never a hang.
  bool fail_fast = false;   // First failed/timed-out file aborts the batch:
                            // files not yet started are classified kFailed
                            // ("skipped"), in-flight ones finish.

  // Crash containment (`--isolate`): each file's analysis runs in a forked
  // worker process under util::RunInWorker — an analyzer SIGSEGV or
  // allocation bomb on one hostile script costs that file only (status
  // kCrashed, repro banked under <cache>/quarantine/), never the driver.
  bool isolate = false;
  int64_t max_rss_mb = 0;      // Worker RLIMIT_AS cap in MiB; 0 = uncapped.
  int64_t worker_cpu_s = 0;    // Worker RLIMIT_CPU cap in s; 0 = uncapped.
};

// Per-file outcome classification. kOk and kDegraded both carry a complete,
// well-formed report (a degraded one may cover only part of the script);
// kTimedOut additionally implies the deadline cut the analysis (its partial
// report is still present); kFailed means no trustworthy report exists
// (unreadable input, injected failure, fail-fast skip); kCrashed means the
// isolated worker process died (signal, OOM under the rss cap, watchdog
// kill) — degraded_reason carries the post-mortem ("crashed:SIGSEGV",
// "rss-limit") and the script is banked under the quarantine directory.
enum class FileStatus { kOk, kDegraded, kFailed, kTimedOut, kCrashed };

std::string_view FileStatusName(FileStatus status);
// Inverse of FileStatusName; an unknown name decodes as kFailed.
FileStatus FileStatusFromName(std::string_view name);

// Crash-containment events (`--isolate`). Per file each count is 0 or 1;
// the batch sums them ("crash.*" in `--stats`).
struct CrashStats {
  int64_t workers = 0;          // The worker died: signal, rss cap or watchdog.
  int64_t oom = 0;              // ...under the rss cap.
  int64_t worker_exits = 0;     // The worker exited without a result.
  int64_t spawn_fallbacks = 0;  // No worker could start; analyzed in-process.
  int64_t quarantined = 0;      // Repro banked under <cache>/quarantine/.

  void Add(const CrashStats& other);
};

// The outcome for one input file.
struct FileResult {
  std::string path;
  bool ok = false;            // Read and analyzed (possibly from cache).
  bool cached = false;        // Served from the cache.
  FileStatus status = FileStatus::kFailed;
  std::string degraded_reason;  // Machine-readable, for kDegraded/kTimedOut.
  std::string error;          // Read-failure description when !ok.
  std::string report_json;    // AnalysisReport::ToJson() bytes.
  std::string report_text;    // AnalysisReport::ToString() bytes.
  int64_t warnings_or_worse = 0;
  int64_t micros = 0;         // Wall time spent on this file by the driver.
  // Counts of the analysis this process ran for the file; zero when the
  // report came from the cache, an isolated worker or a server.
  core::AnalysisStats stats;
  CrashStats crash;
};

struct BatchResult {
  std::vector<FileResult> files;  // Same order as the input list.
  int64_t cache_hits = 0;         // Files served from the cache.
  int64_t cache_misses = 0;       // Files analyzed with the cache enabled.

  // Run statistics, gathered after the pool drains (`--stats`).
  int jobs = 1;                   // Pool threads; 1 when run inline.
  int64_t steals = 0;             // Pool tasks stolen between workers.
  core::AnalysisStats analysis;   // Sum of files[i].stats.
  CrashStats crash;               // Sum of files[i].crash.
  Cache::Stats cache;              // The run's cache; zero without one.
  CacheCommitQueue::Stats commit;  // The run's commit queue; zero when the
                                   // run had none (one inline file).

  bool AnyError() const;
  bool AnyFindings() const;
  // Status census over `files` (the quarantine summary): Quarantined() lists
  // the paths that did not produce a complete trustworthy report on their
  // own merits (kFailed + kTimedOut + kCrashed) — the files to re-run or
  // investigate, isolated so they could not sink their neighbors.
  size_t CountStatus(FileStatus status) const;
  std::vector<std::string> Quarantined() const;
  // Partial-batch exit policy (documented in the CLI usage): every input is
  // processed; 2 when any file failed or timed out (the batch is partial),
  // else 1 when any report has warnings or worse, else 0. Degraded-but-
  // complete reports do not change the exit code — their findings do.
  int ExitCode() const;
};

// Expands a mixed list of files and directories: directories are walked
// recursively and contribute their *.sh files (sorted for determinism);
// plain files (and "-") pass through. Nonexistent paths pass through too —
// they surface as per-file read errors, preserving the partial-batch policy.
std::vector<std::string> ExpandInputs(const std::vector<std::string>& inputs);

// The shared per-source analysis path: cache lookup, fault hooks, analysis,
// cache install. Both BatchDriver tasks and the resident server's request
// handler go through here, which is what makes a warm `--via` response
// byte-identical to local `analyze` output by construction rather than by
// testing alone.
//
// `abort` (optional) is the batch-level fail-fast token; `budget` (optional)
// is the per-request cancellation token — when null and options.deadline_ms
// is set, a per-call token is created internally. A caller-provided token
// must have its deadline configured already; it additionally lets an outside
// agent (the server's drain logic) cancel the analysis mid-flight.
//
// `commit` (optional) routes the cold-result cache install through an
// asynchronous commit queue instead of a synchronous Cache::Put, taking the
// "cache.write" I/O off the calling worker's critical path. The batch
// driver passes its per-run queue for a multi-file pool run; a single inline
// file and the serve path pass nothing and keep
// the synchronous install (a resident server wants the entry durable before
// the response goes out).
FileResult AnalyzeSourceCached(const BatchOptions& options, const std::string& path,
                               const std::string& source, Cache* cache,
                               util::CancelToken* abort, util::CancelToken* budget,
                               CacheCommitQueue* commit = nullptr);

class BatchDriver {
 public:
  explicit BatchDriver(BatchOptions options);

  // Analyzes every file (readable inputs always produce a report, whatever
  // happens to their neighbors). Thread-safe for concurrent calls on
  // distinct drivers sharing one cache directory; a single driver instance
  // runs one batch at a time.
  BatchResult Run(const std::vector<std::string>& files);

  // Analyzes in-memory sources (name, content) — the library entry point the
  // fuzz and stress harnesses drive.
  BatchResult RunSources(const std::vector<std::pair<std::string, std::string>>& sources);

 private:
  BatchResult RunSourcesImpl(const std::vector<std::pair<std::string, std::string>>& sources,
                             const std::vector<std::string>* read_errors);

  BatchOptions options_;
};

}  // namespace sash::batch

#endif  // SASH_BATCH_BATCH_H_
