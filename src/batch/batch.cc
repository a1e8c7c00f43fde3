#include "batch/batch.h"

#include <signal.h>
#include <unistd.h>

#include <algorithm>

#include "batch/isolate.h"
#include "obs/procstat.h"
#include "util/faultinject.h"
#include "util/file.h"
#include "util/subproc.h"
#include "util/thread_pool.h"

namespace sash::batch {

std::string_view FileStatusName(FileStatus status) {
  switch (status) {
    case FileStatus::kOk:
      return "ok";
    case FileStatus::kDegraded:
      return "degraded";
    case FileStatus::kFailed:
      return "failed";
    case FileStatus::kTimedOut:
      return "timed_out";
    case FileStatus::kCrashed:
      return "crashed";
  }
  return "?";
}

FileStatus FileStatusFromName(std::string_view name) {
  for (FileStatus status :
       {FileStatus::kOk, FileStatus::kDegraded, FileStatus::kTimedOut, FileStatus::kCrashed}) {
    if (FileStatusName(status) == name) {
      return status;
    }
  }
  return FileStatus::kFailed;
}

bool BatchResult::AnyError() const {
  return std::any_of(files.begin(), files.end(), [](const FileResult& f) { return !f.ok; });
}

bool BatchResult::AnyFindings() const {
  return std::any_of(files.begin(), files.end(),
                     [](const FileResult& f) { return f.ok && f.warnings_or_worse > 0; });
}

size_t BatchResult::CountStatus(FileStatus status) const {
  return static_cast<size_t>(std::count_if(
      files.begin(), files.end(), [status](const FileResult& f) { return f.status == status; }));
}

std::vector<std::string> BatchResult::Quarantined() const {
  std::vector<std::string> out;
  for (const FileResult& f : files) {
    if (f.status == FileStatus::kFailed || f.status == FileStatus::kTimedOut ||
        f.status == FileStatus::kCrashed) {
      out.push_back(f.path);
    }
  }
  return out;
}

int BatchResult::ExitCode() const {
  if (AnyError() || CountStatus(FileStatus::kTimedOut) > 0 ||
      CountStatus(FileStatus::kCrashed) > 0) {
    return 2;
  }
  return AnyFindings() ? 1 : 0;
}

std::vector<std::string> ExpandInputs(const std::vector<std::string>& inputs) {
  std::vector<std::string> out;
  for (const std::string& input : inputs) {
    std::error_code ec;
    if (input != "-" && std::filesystem::is_directory(input, ec)) {
      std::vector<std::string> found;
      for (std::filesystem::recursive_directory_iterator it(input, ec), end; !ec && it != end;
           it.increment(ec)) {
        if (it->is_regular_file(ec) && it->path().extension() == ".sh") {
          found.push_back(it->path().string());
        }
      }
      std::sort(found.begin(), found.end());
      out.insert(out.end(), std::make_move_iterator(found.begin()),
                 std::make_move_iterator(found.end()));
    } else {
      out.push_back(input);
    }
  }
  return out;
}

BatchDriver::BatchDriver(BatchOptions options) : options_(std::move(options)) {}

namespace {

// A cached degradation reason must be a pure function of the fingerprinted
// options — state/depth caps and the byte gate qualify; a timeout or an
// external abort is a property of one run on one machine and must never be
// replayed onto a future run.
bool CacheableReason(std::string_view reason) {
  return reason.empty() || reason == "state-cap" || reason == "depth-cap" ||
         reason == "input-too-large";
}

FileStatus ClassifyDegraded(std::string_view reason) {
  return reason == "timeout" ? FileStatus::kTimedOut : FileStatus::kDegraded;
}

}  // namespace

void CrashStats::Add(const CrashStats& other) {
  workers += other.workers;
  oom += other.oom;
  worker_exits += other.worker_exits;
  spawn_fallbacks += other.spawn_fallbacks;
  quarantined += other.quarantined;
}

FileResult AnalyzeSourceCached(const BatchOptions& options, const std::string& path,
                               const std::string& source, Cache* cache,
                               util::CancelToken* abort, util::CancelToken* budget,
                               CacheCommitQueue* commit) {
  obs::StopWatch watch;
  obs::Span span(options.journal, "analyze");
  FileResult result;
  result.path = path;

  if (abort != nullptr && abort->cancelled()) {
    result.status = FileStatus::kFailed;
    result.error = "skipped: batch aborted by --fail-fast";
    result.micros = watch.ElapsedMicros();
    return result;
  }
  if (util::FaultInjector::enabled()) {
    util::FaultDecision fault =
        util::FaultInjector::Check(util::FaultSite::kAnalyzeFile, path);
    util::FaultInjector::ApplyDelay(fault);
    if (fault.action == util::FaultAction::kCrash && util::InWorker()) {
      // A real SIGSEGV, only ever inside a sacrificial isolated worker.
      // Reset the disposition first so sanitizer runtimes (which trap
      // SIGSEGV and exit instead of dying on it) cannot mask the signal the
      // containment layer is being tested against.
      ::signal(SIGSEGV, SIG_DFL);
      ::raise(SIGSEGV);
      ::_exit(139);  // Unreachable unless the raise was somehow swallowed.
    }
    if (fault.action == util::FaultAction::kFail ||
        fault.action == util::FaultAction::kCrash) {
      // An uncontained process never sacrifices itself: without --isolate a
      // crash plan degrades to the plain injected-failure path.
      result.status = FileStatus::kFailed;
      result.error = fault.action == util::FaultAction::kCrash
                         ? "injected fault: analyze.file (crash requested outside a worker)"
                         : "injected fault: analyze.file";
      result.micros = watch.ElapsedMicros();
      return result;
    }
  }

  std::string key;
  if (cache != nullptr) {
    key = AnalysisKey(source, options.analyzer, options.annotations_text);
    std::optional<std::string> payload = cache->Get("analysis", key);
    if (payload.has_value()) {
      if (std::optional<AnalysisEntry> entry = DecodeAnalysisEntry(*payload); entry.has_value()) {
        result.ok = true;
        result.cached = true;
        result.status = entry->degraded_reason.empty() ? FileStatus::kOk
                                                       : ClassifyDegraded(entry->degraded_reason);
        result.degraded_reason = std::move(entry->degraded_reason);
        result.report_json = std::move(entry->report_json);
        result.report_text = std::move(entry->report_text);
        result.warnings_or_worse = entry->warnings_or_worse;
        result.micros = watch.ElapsedMicros();
        return result;
      }
      // Undecodable entry (foreign version, torn write, bit rot): the
      // checksum demoted it to a miss — fall through, re-analyze, overwrite.
      cache->CountCorrupt();
    }
  }

  // Per-file budget: one token per analysis, so a single pathological script
  // burns only its own deadline, never the batch's. A caller-supplied token
  // (the server's per-request budget) takes precedence — its deadline was
  // clamped by the caller and it stays cancellable from outside.
  util::CancelToken local_budget;
  core::AnalyzerOptions per_file = options.analyzer;
  per_file.journal = options.journal;  // The shared journal is thread-safe.
  if (budget != nullptr) {
    per_file.cancel = budget;
  } else if (options.deadline_ms > 0) {
    local_budget.SetDeadlineAfterMs(options.deadline_ms);
    per_file.cancel = &local_budget;
  }
  core::Analyzer analyzer(std::move(per_file));
  if (!options.annotations_text.empty()) {
    analyzer.AddAnnotations(annot::ParseAnnotationFile(options.annotations_text));
  }
  core::AnalysisReport report = analyzer.AnalyzeSource(source);
  result.ok = true;
  result.status = report.degraded() ? ClassifyDegraded(report.degraded_reason()) : FileStatus::kOk;
  result.degraded_reason = report.degraded_reason();
  result.report_json = report.ToJson();
  result.report_text = report.ToString();
  result.warnings_or_worse = static_cast<int64_t>(report.CountSeverity(Severity::kWarning));
  result.stats = report.stats();

  if (cache != nullptr && CacheableReason(result.degraded_reason)) {
    AnalysisEntry entry;
    entry.report_json = result.report_json;
    entry.report_text = result.report_text;
    entry.warnings_or_worse = result.warnings_or_worse;
    entry.degraded_reason = result.degraded_reason;
    // Encoding (checksum + JSON) stays on the worker — it parallelizes;
    // only the file I/O moves to the committer when a queue is attached.
    std::string payload = EncodeAnalysisEntry(key, entry);
    if (commit != nullptr) {
      commit->Enqueue("analysis", std::move(key), std::move(payload));
    } else {
      cache->Put("analysis", key, payload);
    }
  }
  result.micros = watch.ElapsedMicros();
  return result;
}

BatchResult BatchDriver::Run(const std::vector<std::string>& files) {
  std::vector<std::pair<std::string, std::string>> sources;
  std::vector<std::string> read_errors(files.size());
  sources.reserve(files.size());
  for (size_t i = 0; i < files.size(); ++i) {
    std::string content;
    if (util::ReadFile(files[i], &content)) {
      sources.emplace_back(files[i], std::move(content));
    } else {
      sources.emplace_back(files[i], std::string());
      read_errors[i] = "cannot open " + files[i];
    }
  }
  BatchResult result = RunSourcesImpl(sources, &read_errors);
  return result;
}

BatchResult BatchDriver::RunSources(
    const std::vector<std::pair<std::string, std::string>>& sources) {
  return RunSourcesImpl(sources, nullptr);
}

BatchResult BatchDriver::RunSourcesImpl(
    const std::vector<std::pair<std::string, std::string>>& sources,
    const std::vector<std::string>* read_errors) {
  std::optional<Cache> cache;
  if (options_.use_cache) {
    cache.emplace(options_.cache_dir);
  }

  BatchResult result;
  result.files.resize(sources.size());

  // Shared fail-fast abort token: the first failed/timed-out file cancels
  // it; files not yet started observe it and report as skipped.
  util::CancelToken abort_token;
  util::CancelToken* abort = options_.fail_fast ? &abort_token : nullptr;

  // The sampler thread journals rss events (the trace's rss_kb counter
  // track) for the whole batch window; it is inert without a journal.
  obs::RssSampler rss_sampler(options_.journal);
  if (options_.journal != nullptr) {
    options_.journal->Emit(obs::EventKind::kMark, "batch.start",
                           static_cast<int64_t>(sources.size()));
  }

  // One committer per batch: workers enqueue encoded entries into per-worker
  // lanes; the committer alone performs the cache file writes, so
  // the "cache.write" span never sits on a worker's critical path. Flushed
  // below before hit/miss accounting, which preserves the invariant that a
  // completed run's entries are all durable before Run returns (warm replay
  // stays byte-identical to the synchronous path).
  //
  // One file without --isolate runs inline on the calling thread instead:
  // starting a pool and a committer costs more than the warm hit they would
  // carry, and its synchronous Cache::Put keeps the same invariant.
  std::optional<util::ThreadPool> pool;
  std::optional<CacheCommitQueue> commit;
  if (sources.size() != 1 || options_.isolate) {
    pool.emplace(options_.jobs, options_.journal);
    if (cache.has_value()) {
      commit.emplace(&*cache, pool->size());
    }
  }
  auto analyze = [this, &sources, &result, &cache, &commit, abort](size_t i) {
    // Isolated files fork a capped worker per analysis and skip the commit
    // queue — the worker installs its own cache entry synchronously before
    // exiting, since its memory (and any queued lane) dies with it.
    FileResult file =
        options_.isolate
            ? AnalyzeSourceIsolated(options_, sources[i].first, sources[i].second,
                                    cache.has_value() ? &*cache : nullptr, abort)
            : AnalyzeSourceCached(options_, sources[i].first, sources[i].second,
                                  cache.has_value() ? &*cache : nullptr, abort,
                                  /*budget=*/nullptr, commit.has_value() ? &*commit : nullptr);
    if (abort != nullptr &&
        (file.status == FileStatus::kFailed || file.status == FileStatus::kTimedOut ||
         file.status == FileStatus::kCrashed)) {
      abort->Cancel(util::CancelReason::kExternal);
    }
    result.files[i] = std::move(file);
  };
  for (size_t i = 0; i < sources.size(); ++i) {
    if (read_errors != nullptr && !(*read_errors)[i].empty()) {
      result.files[i].path = sources[i].first;
      result.files[i].status = FileStatus::kFailed;
      result.files[i].error = (*read_errors)[i];
      if (abort != nullptr) {
        abort->Cancel(util::CancelReason::kExternal);
      }
    } else if (pool.has_value()) {
      pool->Submit([&analyze, i] { analyze(i); });
    } else {
      analyze(i);
    }
  }
  if (pool.has_value()) {
    pool->Wait();
  }
  if (commit.has_value()) {
    commit->Flush();
  }

  // Workers wrote statistics only to their own FileResult; sum them now that
  // the pool has drained.
  result.jobs = pool.has_value() ? pool->size() : 1;
  result.steals = pool.has_value() ? pool->steals() : 0;
  for (const FileResult& f : result.files) {
    if (options_.use_cache && f.ok) {
      f.cached ? ++result.cache_hits : ++result.cache_misses;
    }
    result.analysis.Add(f.stats);
    result.crash.Add(f.crash);
  }
  if (cache.has_value()) {
    result.cache = cache->stats();
  }
  if (commit.has_value()) {
    result.commit = commit->stats();
  }
  return result;
}

}  // namespace sash::batch
