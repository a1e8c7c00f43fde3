#include "batch/isolate.h"

#include <fstream>

#include "obs/journal.h"
#include "obs/json.h"
#include "util/sha256.h"
#include "util/subproc.h"

namespace sash::batch {

namespace {

// Without a per-file deadline the worker still cannot hang the driver: a
// wedged child is SIGKILLed by the parent after this backstop and reported
// as a crash (status kCrashed, reason "worker-watchdog").
constexpr int64_t kDefaultWallBackstopMs = 120000;

inline constexpr char kWorkerSchema[] = "sash-worker-v1";

// A filesystem-safe stem for quarantine artifacts: path separators and shell
// metacharacters in the script's name must not escape the quarantine dir.
std::string SanitizeName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
    out.push_back(safe ? c : '_');
    if (out.size() >= 48) {
      break;
    }
  }
  return out.empty() ? std::string("script") : out;
}

}  // namespace

std::string EncodeWorkerResult(const FileResult& result) {
  obs::JsonWriter w;
  w.BeginObject();
  w.KV("schema", kWorkerSchema);
  w.KV("ok", result.ok);
  w.KV("cached", result.cached);
  w.KV("status", FileStatusName(result.status));
  w.KV("degraded_reason", result.degraded_reason);
  w.KV("error", result.error);
  w.KV("warnings_or_worse", result.warnings_or_worse);
  w.KV("report_text", result.report_text);
  if (!result.report_json.empty()) {
    w.Key("report").Raw(result.report_json);
  }
  w.EndObject();
  return w.Take();
}

bool DecodeWorkerResult(const std::string& payload, FileResult* result) {
  std::optional<obs::JsonValue> doc = obs::JsonValue::Parse(payload);
  if (!doc.has_value() || !doc->is_object()) {
    return false;
  }
  const obs::JsonValue* schema = doc->Find("schema");
  if (schema == nullptr || !schema->is_string() || schema->string != kWorkerSchema) {
    return false;
  }
  const obs::JsonValue* ok = doc->Find("ok");
  const obs::JsonValue* cached = doc->Find("cached");
  const obs::JsonValue* status = doc->Find("status");
  const obs::JsonValue* degraded = doc->Find("degraded_reason");
  const obs::JsonValue* error = doc->Find("error");
  const obs::JsonValue* warnings = doc->Find("warnings_or_worse");
  const obs::JsonValue* text = doc->Find("report_text");
  if (ok == nullptr || !ok->is_bool() || cached == nullptr || !cached->is_bool() ||
      status == nullptr || !status->is_string() || degraded == nullptr ||
      !degraded->is_string() || error == nullptr || !error->is_string() ||
      warnings == nullptr || !warnings->is_number() || text == nullptr || !text->is_string()) {
    return false;
  }
  result->ok = ok->boolean;
  result->cached = cached->boolean;
  result->status = FileStatusFromName(status->string);
  result->degraded_reason = degraded->string;
  result->error = error->string;
  result->warnings_or_worse = static_cast<int64_t>(warnings->number);
  result->report_text = text->string;
  result->report_json.clear();
  if (const obs::JsonValue* report = doc->Find("report");
      report != nullptr && report->is_object()) {
    // Round-trip through the writer: its own output re-serializes exactly,
    // so the parent hands out the same report bytes the worker computed —
    // the isolation boundary is invisible to byte-identity tests.
    obs::JsonWriter w;
    obs::WriteJsonValue(*report, &w);
    result->report_json = w.Take();
  }
  return true;
}

std::string BankQuarantine(const std::filesystem::path& cache_root, const std::string& name,
                           const std::string& source, const FileResult& post_mortem) {
  if (cache_root.empty()) {
    return std::string();
  }
  std::filesystem::path dir = cache_root / "quarantine";
  if (!EnsureDirectories(dir)) {
    return std::string();
  }
  // Content-addressed stem: re-crashing the same script overwrites its own
  // repro instead of accumulating duplicates; distinct scripts with the same
  // display name cannot collide.
  util::Sha256 h;
  h.Update(source);
  std::string stem = SanitizeName(name) + "." + h.HexDigest().substr(0, 8);
  std::filesystem::path repro = dir / (stem + ".sh");
  {
    std::ofstream out(repro, std::ios::binary | std::ios::trunc);
    if (!out) {
      return std::string();
    }
    out << source;
    if (!out.flush()) {
      return std::string();
    }
  }
  obs::JsonWriter w;
  w.BeginObject();
  w.KV("schema", "sash-quarantine-v1");
  w.KV("file", name);
  w.KV("status", FileStatusName(post_mortem.status));
  w.KV("degraded_reason", post_mortem.degraded_reason);
  w.KV("error", post_mortem.error);
  w.KV("repro", repro.string());
  w.EndObject();
  std::ofstream meta(dir / (stem + ".json"), std::ios::binary | std::ios::trunc);
  if (meta) {
    meta << w.Take() << "\n";
  }
  return repro.string();
}

FileResult AnalyzeSourceIsolated(const BatchOptions& options, const std::string& path,
                                 const std::string& source, Cache* cache,
                                 util::CancelToken* abort) {
  obs::StopWatch watch;
  FileResult result;
  result.path = path;

  if (abort != nullptr && abort->cancelled()) {
    result.status = FileStatus::kFailed;
    result.error = "skipped: batch aborted by --fail-fast";
    result.micros = watch.ElapsedMicros();
    return result;
  }

  util::WorkerLimits limits;
  limits.max_rss_mb = options.max_rss_mb;
  limits.cpu_seconds = options.worker_cpu_s;
  limits.wall_timeout_ms =
      options.deadline_ms > 0 ? options.deadline_ms + 5000 : kDefaultWallBackstopMs;

  // The worker re-runs the exact shared path (cache get, fault hooks,
  // analysis, synchronous cache install) and ships the FileResult back over
  // the pipe. The fork inherits warm read-only state (interner, specs,
  // pattern caches) for free; cache entries it installs are atomic-rename
  // files the parent's next Get sees normally.
  //
  // The worker runs without the journal: whatever it records dies with it.
  util::WorkerResult worker = util::RunInWorker(
      [&options, &path, &source, cache]() {
        BatchOptions unjournaled = options;
        unjournaled.journal = nullptr;
        FileResult inner =
            AnalyzeSourceCached(unjournaled, path, source, cache, /*abort=*/nullptr,
                                /*budget=*/nullptr, /*commit=*/nullptr);
        return EncodeWorkerResult(inner);
      },
      limits);

  switch (worker.outcome) {
    case util::WorkerOutcome::kOk: {
      if (!DecodeWorkerResult(worker.payload, &result)) {
        result = FileResult();
        result.path = path;
        result.status = FileStatus::kFailed;
        result.error = "isolated worker returned an undecodable result";
      }
      result.path = path;
      result.micros = watch.ElapsedMicros();
      return result;
    }
    case util::WorkerOutcome::kSpawnError: {
      // No child ever ran (fork/pipe refused — fd or process pressure).
      // Containment is best-effort on top of a correct pipeline; a healthy
      // script must not fail because the OS was briefly out of processes.
      result = AnalyzeSourceCached(options, path, source, cache, abort,
                                   /*budget=*/nullptr, /*commit=*/nullptr);
      result.crash.spawn_fallbacks = 1;
      return result;
    }
    case util::WorkerOutcome::kCrashed:
      result.status = FileStatus::kCrashed;
      result.degraded_reason = "crashed:" + worker.SignalName();
      result.error = "analysis worker crashed: " + worker.SignalName();
      break;
    case util::WorkerOutcome::kOom:
      result.status = FileStatus::kCrashed;
      result.degraded_reason = "rss-limit";
      result.error = worker.error;
      break;
    case util::WorkerOutcome::kTimeout:
      result.status = FileStatus::kCrashed;
      result.degraded_reason = "worker-watchdog";
      result.error = worker.error;
      break;
    case util::WorkerOutcome::kExit:
      // The child died tidily but produced nothing trustworthy. Not blamed
      // on the script (no signal post-mortem), so no quarantine entry.
      result.status = FileStatus::kFailed;
      result.error = worker.error;
      result.micros = watch.ElapsedMicros();
      result.crash.worker_exits = 1;
      return result;
  }

  // Crash-class outcomes: count, journal, and bank the repro script.
  result.crash.workers = 1;
  result.crash.oom = worker.outcome == util::WorkerOutcome::kOom ? 1 : 0;
  if (obs::EventJournal* journal =
          options.journal != nullptr ? options.journal : obs::EventJournal::Global();
      journal != nullptr) {
    journal->Emit(obs::EventKind::kMark, "crash.worker", worker.term_signal);
  }
  std::filesystem::path bank_root;
  if (cache != nullptr) {
    bank_root = cache->root();
  } else if (!options.cache_dir.empty()) {
    bank_root = options.cache_dir;
  }
  std::string repro = BankQuarantine(bank_root, path, source, result);
  if (!repro.empty()) {
    result.crash.quarantined = 1;
    result.error += "; repro banked at " + repro;
  }
  result.micros = watch.ElapsedMicros();
  return result;
}

}  // namespace sash::batch
