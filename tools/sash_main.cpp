// The sash command-line tool.
//
//   sash analyze [-jN] [--cache-dir DIR] [--no-cache] [--lint] [--no-symex]
//                [--no-stream] [--stats] [--format=json] [--trace-out FILE]
//                [--journal FILE] <script.sh|dir>...
//   sash profile [-jN] [--journal FILE] [--trace-out FILE] [--folded FILE]
//                <script.sh|dir>...       (batch under full instrumentation)
//   sash report [--journal FILE] [batch.json|bench.json]...
//   sash lint <script.sh>
//   sash run <script.sh> [args...]        (sandboxed; nothing touches disk)
//   sash verify --no-rw <path> [--no-read <path>] <script.sh>
//   sash mine [--no-cache] [--cache-dir DIR] [command]
//   sash typeof <pipeline string>
//   sash version
//
// Reads from stdin when the script operand is "-". Directory operands expand
// to their *.sh files, recursively. Multiple operands (or -j > 1) run as a
// batch over a work-stealing pool, each file consulting the incremental
// result cache (default ~/.cache/sash; see README "Batch mode & caching").
//
// Exit codes: 0 = analysis clean (or command succeeded), 1 = findings at
// warning severity or above (or a blocked run), 2 = usage or I/O error.
// Partial-batch failure: every readable input is still analyzed and printed;
// the batch exits 2 if any input could not be read, else 1 if any file had
// findings, else 0.
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "batch/batch.h"
#include "batch/mine_cache.h"
#include "core/analyzer.h"
#include "core/version.h"
#include "mining/pipeline.h"
#include "monitor/guard.h"
#include "monitor/interp.h"
#include "obs/obs.h"
#include "obs/profile.h"
#include "obs/session.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/supervisor.h"
#include "stream/pipeline.h"
#include "util/strings.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: sash <command> [options]\n"
               "  analyze [-jN|--jobs N] [--cache-dir DIR] [--no-cache]\n"
               "          [--lint] [--no-symex] [--no-stream] [--idempotence] [--coach]\n"
               "          [--annotations file.sasht] [--stats] [--format=text|json]\n"
               "          [--deadline-ms N] [--fail-fast] [--max-input-bytes N]\n"
               "          [--isolate] [--max-rss-mb N] [--worker-cpu-s N]\n"
               "          [--trace-out trace.json] [--journal events.jsonl]\n"
               "          [--via SOCKET [--fallback local|fail]]\n"
               "          <script.sh|dir>...\n"
               "  serve --socket PATH [-jN|--jobs N] [--cache-dir DIR] [--no-cache]\n"
               "          [--pidfile PATH] [--max-pending N] [--max-connections N]\n"
               "          [--deadline-cap-ms N] [--default-budget-ms N]\n"
               "          [--idle-timeout-ms N] [--io-timeout-ms N]\n"
               "          [--drain-deadline-ms N] [--max-frame-bytes N]\n"
               "          [--isolate] [--max-rss-mb N] [--worker-cpu-s N]\n"
               "          [--supervise [--max-restarts N] [--heartbeat-ms N]]\n"
               "          [--annotations file.sasht] [--no-warmup] [--stats]\n"
               "          [--journal events.jsonl]\n"
               "  profile [-jN|--jobs N] [--cache-dir DIR] [--no-cache]\n"
               "          [--journal events.jsonl] [--trace-out trace.json]\n"
               "          [--folded profile.folded] <script.sh|dir>...\n"
               "  report  [--journal events.jsonl] [batch.json|bench.json]...\n"
               "  lint <script.sh>\n"
               "  run <script.sh> [args...]\n"
               "  verify [--no-rw PATH]... [--no-read PATH]... <script.sh>\n"
               "  mine [--no-cache] [--cache-dir DIR] [command]\n"
               "  typeof '<pipeline>'\n"
               "  version\n"
               "exit codes: 0 clean, 1 findings (warnings or worse), 2 usage/IO error\n"
               "batch: all readable inputs are analyzed; exit 2 if any input was\n"
               "unreadable, failed, or timed out (partial batch), else 1 if any file\n"
               "had findings, else 0. --deadline-ms bounds each file's analysis (an\n"
               "expired file keeps its partial report, status \"timed_out\");\n"
               "--fail-fast stops scheduling new files after the first failure.\n"
               "--isolate runs each file's analysis in a forked, rlimit-capped worker\n"
               "(--max-rss-mb / --worker-cpu-s imply it): a crashing or OOMing file\n"
               "gets status \"crashed\" (exit 2) with a repro banked under\n"
               "<cache-dir>/quarantine/, and its neighbors are untouched\n"
               "serve: exit 0 after a graceful drain (SIGTERM/SIGINT), 2 on startup\n"
               "failure. --supervise restarts the daemon on abnormal death (bounded\n"
               "backoff, heartbeat watchdog); exit 1 when --max-restarts is exhausted.\n"
               "analyze --via uses a resident server (bounded retry with\n"
               "backoff); --fallback local degrades to in-process analysis when the\n"
               "server is unreachable, --fallback fail (default) exits 2\n");
  return 2;
}

// Strict numeric-flag parsing: non-numeric, out-of-range, and overflowing
// values are rejected with a diagnostic (callers exit 2), where atoi/atoll
// would silently produce 0 or saturate.
bool NumericFlag(const char* cmd, const char* flag, const std::string& text, int64_t min,
                 int64_t max, int64_t* out) {
  int64_t value = 0;
  if (!sash::ParseInt64(text, &value)) {
    std::fprintf(stderr, "sash %s: %s expects an integer, got '%s'\n", cmd, flag, text.c_str());
    return false;
  }
  if (value < min || value > max) {
    std::fprintf(stderr, "sash %s: %s must be between %lld and %lld, got '%s'\n", cmd, flag,
                 static_cast<long long>(min), static_cast<long long>(max), text.c_str());
    return false;
  }
  *out = value;
  return true;
}

bool NumericFlagInt(const char* cmd, const char* flag, const std::string& text, int64_t min,
                    int64_t max, int* out) {
  int64_t value = 0;
  if (!NumericFlag(cmd, flag, text, min, max, &value)) {
    return false;
  }
  *out = static_cast<int>(value);
  return true;
}

// Flag ranges shared by analyze/profile/serve.
inline constexpr int64_t kMaxJobs = 4096;
inline constexpr int64_t kMaxMs = 1000000000;          // ~11.5 days.
inline constexpr int64_t kMaxBytes = 1LL << 40;        // 1 TiB.

// Human-readable stats table, written to stderr so it never mixes with the
// report on stdout.
void PrintStats(const sash::obs::Registry& registry) {
  sash::obs::MetricsSnapshot snap = registry.Snapshot();
  if (!snap.counters.empty() || !snap.gauges.empty()) {
    std::fprintf(stderr, "--- metrics ---\n");
    for (const auto& [name, value] : snap.counters) {
      std::fprintf(stderr, "  %-32s %10lld\n", name.c_str(), static_cast<long long>(value));
    }
    for (const auto& [name, value] : snap.gauges) {
      std::fprintf(stderr, "  %-32s %10lld (gauge)\n", name.c_str(),
                   static_cast<long long>(value));
    }
    for (const auto& [name, h] : snap.histograms) {
      std::fprintf(stderr, "  %-32s count=%lld p50<=%lld p99<=%lld\n", name.c_str(),
                   static_cast<long long>(h.count), static_cast<long long>(h.p50),
                   static_cast<long long>(h.p99));
    }
  }
}

bool ReadSource(const std::string& path, std::string* out) {
  if (path == "-") {
    std::ostringstream buf;
    buf << std::cin.rdbuf();
    *out = buf.str();
    return true;
  }
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "sash: cannot open %s\n", path.c_str());
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

// Renders the batch result as one machine-readable document (schema
// "sash-batch-v1"). Per-file reports are spliced in verbatim — the bytes are
// identical whether the report came from a fresh analysis or the cache.
std::string BatchJson(const sash::batch::BatchResult& result, int jobs, bool cache_enabled) {
  sash::obs::JsonWriter w;
  w.BeginObject();
  w.KV("schema", sash::batch::kBatchSchema);
  w.KV("sash", sash::core::kVersion);
  w.KV("jobs", jobs);
  w.Key("cache").BeginObject();
  w.KV("enabled", cache_enabled);
  w.KV("hits", result.cache_hits);
  w.KV("misses", result.cache_misses);
  w.EndObject();
  w.Key("results").BeginArray();
  int errors = 0;
  int with_findings = 0;
  for (const sash::batch::FileResult& f : result.files) {
    w.BeginObject();
    w.KV("file", f.path);
    w.KV("ok", f.ok);
    w.KV("status", sash::batch::FileStatusName(f.status));
    if (!f.degraded_reason.empty()) {
      w.KV("degraded_reason", f.degraded_reason);
    }
    if (f.ok) {
      w.KV("cached", f.cached);
      w.KV("warnings_or_worse", f.warnings_or_worse);
      w.Key("report").Raw(f.report_json);
      if (f.warnings_or_worse > 0) {
        ++with_findings;
      }
    } else {
      w.KV("error", f.error);
      ++errors;
    }
    w.EndObject();
  }
  w.EndArray();
  w.Key("summary").BeginObject();
  w.KV("files", static_cast<int64_t>(result.files.size()));
  w.KV("errors", errors);
  w.KV("files_with_findings", with_findings);
  w.KV("degraded", static_cast<int64_t>(result.CountStatus(sash::batch::FileStatus::kDegraded)));
  w.KV("timed_out", static_cast<int64_t>(result.CountStatus(sash::batch::FileStatus::kTimedOut)));
  w.KV("failed", static_cast<int64_t>(result.CountStatus(sash::batch::FileStatus::kFailed)));
  w.KV("crashed", static_cast<int64_t>(result.CountStatus(sash::batch::FileStatus::kCrashed)));
  w.Key("quarantined").BeginArray();
  for (const std::string& path : result.Quarantined()) {
    w.String(path);
  }
  w.EndArray();
  w.EndObject();
  w.EndObject();
  return w.Take();
}

// Maps the wire `file_status` back to the batch enum so `--via` output goes
// through exactly the same rendering path as local output.
sash::batch::FileStatus FileStatusFromName(const std::string& name) {
  if (name == "ok") {
    return sash::batch::FileStatus::kOk;
  }
  if (name == "degraded") {
    return sash::batch::FileStatus::kDegraded;
  }
  if (name == "timed_out") {
    return sash::batch::FileStatus::kTimedOut;
  }
  if (name == "crashed") {
    return sash::batch::FileStatus::kCrashed;
  }
  return sash::batch::FileStatus::kFailed;
}

// Runs the analyze batch against a resident server (`--via`). Returns 0 when
// *result was filled from server responses, 1 when the caller should fall
// back to local analysis (--fallback local after a transport failure), 2 on
// a hard, already-reported error.
int AnalyzeVia(const std::string& socket_path, bool fallback_local,
               const sash::batch::BatchOptions& batch, const std::vector<std::string>& files,
               sash::batch::BatchResult* result) {
  sash::serve::ClientOptions copt;
  copt.socket_path = socket_path;
  sash::serve::Client client(copt);
  result->files.clear();
  result->files.resize(files.size());
  for (size_t i = 0; i < files.size(); ++i) {
    sash::batch::FileResult& file = result->files[i];
    file.path = files[i];
    std::string source;
    if (!ReadSource(files[i], &source)) {
      file.status = sash::batch::FileStatus::kFailed;
      file.error = "cannot open " + files[i];
      continue;
    }
    sash::serve::RpcRequest req;
    req.op = "analyze";
    req.id = static_cast<int64_t>(i) + 1;
    req.name = files[i];
    req.script = std::move(source);
    req.annotations = batch.annotations_text;
    req.budget_ms = batch.deadline_ms;
    req.use_cache = batch.use_cache;
    req.lint = batch.analyzer.enable_lint;
    req.symex = batch.analyzer.enable_symex;
    req.stream = batch.analyzer.enable_stream_types;
    req.idempotence = batch.analyzer.enable_idempotence_check;
    req.coach = batch.analyzer.enable_optimization_coach;
    req.max_input_bytes = batch.analyzer.max_input_bytes;
    sash::serve::CallResult call = client.Call(req);
    if (!call.ok) {
      std::fprintf(stderr, "sash analyze: --via %s: %s\n", socket_path.c_str(),
                   call.transport_error.c_str());
      if (fallback_local) {
        std::fprintf(stderr, "sash analyze: falling back to local analysis\n");
        return 1;
      }
      return 2;
    }
    const sash::serve::RpcResponse& r = call.response;
    file.ok = r.status == sash::serve::kStatusOk;
    file.status = !r.file_status.empty()
                      ? FileStatusFromName(r.file_status)
                      : (file.ok ? sash::batch::FileStatus::kOk : sash::batch::FileStatus::kFailed);
    file.degraded_reason = r.degraded_reason;
    file.cached = r.cached;
    file.warnings_or_worse = r.warnings_or_worse;
    file.report_json = r.report_json;
    file.report_text = r.report_text;
    file.error = !r.error.empty() ? r.error
                 : !file.ok       ? "server status: " + r.status
                                  : std::string();
    file.micros = r.micros;
    if (batch.use_cache && file.ok) {
      file.cached ? ++result->cache_hits : ++result->cache_misses;
    }
  }
  return 0;
}

int CmdAnalyze(const std::vector<std::string>& args) {
  sash::batch::BatchOptions batch;
  std::string annotations_file;
  std::string trace_out;
  std::string journal_out;
  std::string via;
  std::string fallback = "fail";
  std::vector<std::string> inputs;
  bool stats = false;
  bool json = false;
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--annotations" && i + 1 < args.size()) {
      annotations_file = args[++i];
    } else if (a == "--trace-out" && i + 1 < args.size()) {
      trace_out = args[++i];
    } else if (a.rfind("--trace-out=", 0) == 0) {
      trace_out = a.substr(std::strlen("--trace-out="));
    } else if (a == "--journal" && i + 1 < args.size()) {
      journal_out = args[++i];
    } else if (a.rfind("--journal=", 0) == 0) {
      journal_out = a.substr(std::strlen("--journal="));
    } else if (a == "--stats") {
      stats = true;
    } else if (a == "--format=json") {
      json = true;
    } else if (a == "--format=text") {
      json = false;
    } else if (a == "--format" && i + 1 < args.size()) {
      const std::string& fmt = args[++i];
      if (fmt == "json") {
        json = true;
      } else if (fmt == "text") {
        json = false;
      } else {
        std::fprintf(stderr, "sash analyze: unknown format %s\n", fmt.c_str());
        return 2;
      }
    } else if (a == "-j" || a == "--jobs") {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "sash analyze: %s requires a count\n", a.c_str());
        return 2;
      }
      if (!NumericFlagInt("analyze", "--jobs", args[++i], 0, kMaxJobs, &batch.jobs)) {
        return 2;
      }
    } else if (a.rfind("-j", 0) == 0 && a.size() > 2) {
      if (!NumericFlagInt("analyze", "-j", a.substr(2), 0, kMaxJobs, &batch.jobs)) {
        return 2;
      }
    } else if (a.rfind("--jobs=", 0) == 0) {
      if (!NumericFlagInt("analyze", "--jobs", a.substr(std::strlen("--jobs=")), 0, kMaxJobs,
                          &batch.jobs)) {
        return 2;
      }
    } else if (a == "--cache-dir" && i + 1 < args.size()) {
      batch.cache_dir = args[++i];
    } else if (a.rfind("--cache-dir=", 0) == 0) {
      batch.cache_dir = a.substr(std::strlen("--cache-dir="));
    } else if (a == "--no-cache") {
      batch.use_cache = false;
    } else if (a == "--deadline-ms" && i + 1 < args.size()) {
      if (!NumericFlag("analyze", "--deadline-ms", args[++i], 0, kMaxMs, &batch.deadline_ms)) {
        return 2;
      }
    } else if (a.rfind("--deadline-ms=", 0) == 0) {
      if (!NumericFlag("analyze", "--deadline-ms", a.substr(std::strlen("--deadline-ms=")), 0,
                       kMaxMs, &batch.deadline_ms)) {
        return 2;
      }
    } else if (a == "--max-input-bytes" && i + 1 < args.size()) {
      if (!NumericFlag("analyze", "--max-input-bytes", args[++i], 0, kMaxBytes,
                       &batch.analyzer.max_input_bytes)) {
        return 2;
      }
    } else if (a.rfind("--max-input-bytes=", 0) == 0) {
      if (!NumericFlag("analyze", "--max-input-bytes", a.substr(std::strlen("--max-input-bytes=")),
                       0, kMaxBytes, &batch.analyzer.max_input_bytes)) {
        return 2;
      }
    } else if (a == "--via" && i + 1 < args.size()) {
      via = args[++i];
    } else if (a.rfind("--via=", 0) == 0) {
      via = a.substr(std::strlen("--via="));
    } else if (a == "--fallback" && i + 1 < args.size()) {
      fallback = args[++i];
    } else if (a.rfind("--fallback=", 0) == 0) {
      fallback = a.substr(std::strlen("--fallback="));
    } else if (a == "--fail-fast") {
      batch.fail_fast = true;
    } else if (a == "--isolate") {
      batch.isolate = true;
    } else if (a == "--max-rss-mb" && i + 1 < args.size()) {
      if (!NumericFlag("analyze", "--max-rss-mb", args[++i], 0, kMaxBytes >> 20,
                       &batch.max_rss_mb)) {
        return 2;
      }
    } else if (a.rfind("--max-rss-mb=", 0) == 0) {
      if (!NumericFlag("analyze", "--max-rss-mb", a.substr(std::strlen("--max-rss-mb=")), 0,
                       kMaxBytes >> 20, &batch.max_rss_mb)) {
        return 2;
      }
    } else if (a == "--worker-cpu-s" && i + 1 < args.size()) {
      if (!NumericFlag("analyze", "--worker-cpu-s", args[++i], 0, kMaxMs / 1000,
                       &batch.worker_cpu_s)) {
        return 2;
      }
    } else if (a.rfind("--worker-cpu-s=", 0) == 0) {
      if (!NumericFlag("analyze", "--worker-cpu-s", a.substr(std::strlen("--worker-cpu-s=")), 0,
                       kMaxMs / 1000, &batch.worker_cpu_s)) {
        return 2;
      }
    } else if (a == "--idempotence") {
      batch.analyzer.enable_idempotence_check = true;
    } else if (a == "--coach") {
      batch.analyzer.enable_optimization_coach = true;
    } else if (a == "--lint") {
      batch.analyzer.enable_lint = true;
    } else if (a == "--no-symex") {
      batch.analyzer.enable_symex = false;
    } else if (a == "--no-stream") {
      batch.analyzer.enable_stream_types = false;
    } else if (!a.empty() && a[0] == '-' && a != "-") {
      std::fprintf(stderr, "sash analyze: unknown option %s\n", a.c_str());
      return 2;
    } else {
      inputs.push_back(a);
    }
  }
  if (inputs.empty()) {
    return Usage();
  }
  if (fallback != "fail" && fallback != "local") {
    std::fprintf(stderr, "sash analyze: --fallback expects 'local' or 'fail', got '%s'\n",
                 fallback.c_str());
    return 2;
  }
  // Resource caps only apply inside a worker process, so they imply one.
  if (batch.max_rss_mb > 0 || batch.worker_cpu_s > 0) {
    batch.isolate = true;
  }

  if (!annotations_file.empty() && !ReadSource(annotations_file, &batch.annotations_text)) {
    return 2;
  }

  std::vector<std::string> files = sash::batch::ExpandInputs(inputs);
  if (files.empty()) {
    std::fprintf(stderr, "sash analyze: no .sh files found under the given inputs\n");
    return 2;
  }
  bool has_stdin = false;
  for (const std::string& f : files) {
    has_stdin = has_stdin || f == "-";
  }
  if (has_stdin && files.size() > 1) {
    std::fprintf(stderr, "sash analyze: '-' cannot be combined with other inputs\n");
    return 2;
  }

  // Observability is opt-in: the journal only behind --journal or
  // --trace-out (the trace is rendered from it), the metrics registry only
  // when --stats or the trace's counter tracks surface it, armed lock probes
  // only behind --journal.
  sash::obs::Session session({.trace_out = trace_out,
                              .journal_out = journal_out,
                              .metrics = stats || !trace_out.empty(),
                              .arm_lock_probes = !journal_out.empty()});
  batch.obs = session.hooks();

  sash::batch::BatchResult result;
  bool via_filled = false;
  if (!via.empty()) {
    int rc = AnalyzeVia(via, fallback == "local", batch, files, &result);
    if (rc == 2) {
      return 2;
    }
    via_filled = rc == 0;
  }
  if (!via_filled) {
    sash::batch::BatchDriver driver(batch);
    if (has_stdin) {
      std::string source;
      if (!ReadSource("-", &source)) {
        return 2;
      }
      result = driver.RunSources({{"-", std::move(source)}});
    } else {
      result = driver.Run(files);
    }
  }

  const bool single = result.files.size() == 1;
  if (json) {
    if (single && result.files[0].ok) {
      // Single-file JSON stays a plain sash-analysis-v1 document; the bytes
      // are the cold run's whether this run was cold or warm.
      std::printf("%s\n", result.files[0].report_json.c_str());
    } else {
      std::printf("%s\n", BatchJson(result, batch.jobs, batch.use_cache).c_str());
    }
  } else {
    for (const sash::batch::FileResult& f : result.files) {
      if (!single) {
        std::printf("== %s ==\n", f.path.c_str());
      }
      if (f.ok) {
        std::printf("%s", f.report_text.c_str());
      } else {
        std::printf("error: %s\n", f.error.c_str());
      }
    }
  }
  for (const sash::batch::FileResult& f : result.files) {
    if (!f.ok) {
      std::fprintf(stderr, "sash: %s\n", f.error.c_str());
    }
  }
  if (stats) {
    PrintStats(*session.metrics());
  }
  if (!session.Finish("sash")) {
    return 2;
  }
  return result.ExitCode();
}

int CmdLint(const std::vector<std::string>& args) {
  if (args.empty()) {
    return Usage();
  }
  std::string source;
  if (!ReadSource(args[0], &source)) {
    return 2;
  }
  sash::syntax::ParseOutput parsed = sash::syntax::Parse(source);
  std::vector<sash::Diagnostic> findings = sash::lint::Lint(parsed.program);
  for (const sash::Diagnostic& d : parsed.diagnostics) {
    std::printf("%s\n", d.ToString().c_str());
  }
  for (const sash::Diagnostic& d : findings) {
    std::printf("%s\n", d.ToString().c_str());
  }
  return findings.empty() && parsed.ok() ? 0 : 1;
}

int CmdRun(const std::vector<std::string>& args) {
  if (args.empty()) {
    return Usage();
  }
  std::string source;
  if (!ReadSource(args[0], &source)) {
    return 2;
  }
  sash::syntax::ParseOutput parsed = sash::syntax::Parse(source);
  if (!parsed.ok()) {
    for (const sash::Diagnostic& d : parsed.diagnostics) {
      std::fprintf(stderr, "%s\n", d.ToString().c_str());
    }
    return 2;
  }
  sash::fs::FileSystem fs;
  fs.MakeDir("/tmp", false);
  fs.MakeDir("/home/user", true);
  sash::monitor::InterpOptions options;
  options.script_name = args[0];
  options.args.assign(args.begin() + 1, args.end());
  sash::monitor::Interpreter interp(&fs, std::move(options));
  sash::monitor::InterpResult result = interp.Run(parsed.program);
  std::fputs(result.out.c_str(), stdout);
  std::fputs(result.err.c_str(), stderr);
  return result.exit_code;
}

int CmdVerify(const std::vector<std::string>& args) {
  sash::monitor::EffectPolicy policy;
  std::string file;
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--no-rw" && i + 1 < args.size()) {
      policy.no_write.push_back(args[++i]);
    } else if (args[i] == "--no-read" && i + 1 < args.size()) {
      policy.no_read.push_back(args[++i]);
    } else {
      file = args[i];
    }
  }
  if (file.empty()) {
    return Usage();
  }
  std::string source;
  if (!ReadSource(file, &source)) {
    return 2;
  }
  sash::syntax::ParseOutput parsed = sash::syntax::Parse(source);
  sash::fs::FileSystem fs;
  fs.MakeDir("/home/user", true);
  for (const std::string& p : policy.no_write) {
    fs.MakeDir(p, true);
  }
  sash::monitor::VerifyReport report = sash::monitor::Verify(
      parsed.program, policy, &fs, sash::monitor::InterpOptions{}, /*execute=*/true);
  for (const sash::monitor::StaticPolicyFinding& f : report.static_findings) {
    std::printf("static [%s] %s -> %s\n", f.rule.c_str(), f.command.c_str(), f.path.c_str());
  }
  if (report.blocked) {
    std::printf("BLOCKED: %s\n", report.block_reason.c_str());
    return 1;
  }
  std::printf("verified run completed (exit %d)\n", report.run.exit_code);
  return report.static_findings.empty() ? 0 : 1;
}

int CmdMine(const std::vector<std::string>& args) {
  bool use_cache = true;
  std::filesystem::path cache_dir;
  std::string command;
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--no-cache") {
      use_cache = false;
    } else if (a == "--cache-dir" && i + 1 < args.size()) {
      cache_dir = args[++i];
    } else if (a.rfind("--cache-dir=", 0) == 0) {
      cache_dir = a.substr(std::strlen("--cache-dir="));
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "sash mine: unknown option %s\n", a.c_str());
      return 2;
    } else {
      command = a;
    }
  }
  std::optional<sash::batch::Cache> cache;
  if (use_cache) {
    cache.emplace(cache_dir);
  }
  sash::batch::Cache* cache_ptr = cache.has_value() ? &*cache : nullptr;
  if (!command.empty()) {
    sash::mining::MiningOutcome o = sash::batch::CachedMineCommand(cache_ptr, command);
    if (!o.ok) {
      std::fprintf(stderr, "sash mine: %s\n", o.error.c_str());
      return 1;
    }
    std::printf("%s — %d probes, %d cases, %.1f%% agreement\n%s", o.command.c_str(), o.probes,
                o.cases, 100.0 * o.validation.Agreement(), o.spec.ToString().c_str());
    return 0;
  }
  for (const sash::mining::MiningOutcome& o : sash::batch::CachedMineAll(cache_ptr)) {
    std::printf("%-10s %s (%d probes, %d cases, %.1f%% agreement)\n", o.command.c_str(),
                o.ok ? "ok" : o.error.c_str(), o.probes, o.cases,
                100.0 * o.validation.Agreement());
  }
  return 0;
}

// `sash profile`: run a batch under full instrumentation — armed lock
// probes, event journal, metrics — and leave three artifacts behind: the
// journal (sash-events-v1 JSONL), and two views of it, a Chrome trace with
// per-worker lanes and counter tracks, and a collapsed-stack file for
// flamegraph tools. The contention/utilization summary prints to stdout.
int CmdProfile(const std::vector<std::string>& args) {
  sash::batch::BatchOptions batch;
  std::string journal_out = "sash-journal.jsonl";
  std::string trace_out = "sash-trace.json";
  std::string folded_out = "sash-profile.folded";
  std::vector<std::string> inputs;
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--journal" && i + 1 < args.size()) {
      journal_out = args[++i];
    } else if (a.rfind("--journal=", 0) == 0) {
      journal_out = a.substr(std::strlen("--journal="));
    } else if (a == "--trace-out" && i + 1 < args.size()) {
      trace_out = args[++i];
    } else if (a.rfind("--trace-out=", 0) == 0) {
      trace_out = a.substr(std::strlen("--trace-out="));
    } else if (a == "--folded" && i + 1 < args.size()) {
      folded_out = args[++i];
    } else if (a.rfind("--folded=", 0) == 0) {
      folded_out = a.substr(std::strlen("--folded="));
    } else if (a == "-j" || a == "--jobs") {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "sash profile: %s requires a count\n", a.c_str());
        return 2;
      }
      if (!NumericFlagInt("profile", "--jobs", args[++i], 0, kMaxJobs, &batch.jobs)) {
        return 2;
      }
    } else if (a.rfind("-j", 0) == 0 && a.size() > 2) {
      if (!NumericFlagInt("profile", "-j", a.substr(2), 0, kMaxJobs, &batch.jobs)) {
        return 2;
      }
    } else if (a.rfind("--jobs=", 0) == 0) {
      if (!NumericFlagInt("profile", "--jobs", a.substr(std::strlen("--jobs=")), 0, kMaxJobs,
                          &batch.jobs)) {
        return 2;
      }
    } else if (a == "--cache-dir" && i + 1 < args.size()) {
      batch.cache_dir = args[++i];
    } else if (a.rfind("--cache-dir=", 0) == 0) {
      batch.cache_dir = a.substr(std::strlen("--cache-dir="));
    } else if (a == "--no-cache") {
      batch.use_cache = false;
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "sash profile: unknown option %s\n", a.c_str());
      return 2;
    } else {
      inputs.push_back(a);
    }
  }
  if (inputs.empty()) {
    return Usage();
  }
  if (journal_out.empty() || trace_out.empty() || folded_out.empty()) {
    std::fprintf(stderr, "sash profile: --journal, --trace-out and --folded need a path\n");
    return 2;
  }
  std::vector<std::string> files = sash::batch::ExpandInputs(inputs);
  if (files.empty()) {
    std::fprintf(stderr, "sash profile: no .sh files found under the given inputs\n");
    return 2;
  }

  sash::obs::Session session({.trace_out = trace_out,
                              .journal_out = journal_out,
                              .metrics = true,
                              .arm_lock_probes = true});
  batch.obs = session.hooks();

  sash::batch::BatchDriver driver(batch);
  sash::batch::BatchResult result = driver.Run(files);

  const bool io_ok = session.Finish("sash profile", folded_out);

  sash::obs::JournalSummary summary = sash::obs::SummarizeEvents(session.journal()->Drain());
  std::printf("profiled %zu file(s), jobs=%d\n", result.files.size(),
              batch.jobs > 0 ? batch.jobs : 0);
  std::printf("%s", sash::obs::FormatReport(summary).c_str());
  std::printf("artifacts: %s, %s, %s\n", journal_out.c_str(), trace_out.c_str(),
              folded_out.c_str());
  if (!io_ok) {
    return 2;
  }
  return result.ExitCode();
}

// `sash report`: aggregate profiling/bench artifacts into a human summary.
// A --journal file yields the contention/worker/phase report; sash-batch-v1
// and sash-bench-v1 JSON documents are summarized after it.
int CmdReport(const std::vector<std::string>& args) {
  std::string journal_path;
  std::vector<std::string> json_paths;
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--journal" && i + 1 < args.size()) {
      journal_path = args[++i];
    } else if (a.rfind("--journal=", 0) == 0) {
      journal_path = a.substr(std::strlen("--journal="));
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "sash report: unknown option %s\n", a.c_str());
      return 2;
    } else {
      json_paths.push_back(a);
    }
  }
  if (journal_path.empty() && json_paths.empty()) {
    return Usage();
  }

  if (!journal_path.empty()) {
    std::string text;
    if (!ReadSource(journal_path, &text)) {
      return 2;
    }
    std::vector<std::string> problems;
    std::optional<sash::obs::JournalSummary> summary =
        sash::obs::SummarizeJsonl(text, &problems);
    if (!summary.has_value()) {
      std::fprintf(stderr, "sash report: %s is not a valid %s document:\n", journal_path.c_str(),
                   sash::obs::kEventsSchema);
      for (const std::string& p : problems) {
        std::fprintf(stderr, "  %s\n", p.c_str());
      }
      return 2;
    }
    std::printf("%s", sash::obs::FormatReport(*summary).c_str());
  }

  for (const std::string& path : json_paths) {
    std::string text;
    if (!ReadSource(path, &text)) {
      return 2;
    }
    std::optional<sash::obs::JsonValue> doc = sash::obs::JsonValue::Parse(text);
    if (!doc.has_value() || !doc->is_object()) {
      std::fprintf(stderr, "sash report: %s is not a JSON document\n", path.c_str());
      return 2;
    }
    const sash::obs::JsonValue* schema = doc->Find("schema");
    std::string kind = schema != nullptr && schema->is_string() ? schema->string : "?";
    std::printf("== %s (%s) ==\n", path.c_str(), kind.c_str());
    if (kind == sash::batch::kBatchSchema) {
      if (const sash::obs::JsonValue* summary = doc->Find("summary");
          summary != nullptr && summary->is_object()) {
        for (const char* key :
             {"files", "errors", "files_with_findings", "degraded", "timed_out", "failed",
              "crashed"}) {
          if (const sash::obs::JsonValue* v = summary->Find(key); v != nullptr && v->is_number()) {
            std::printf("  %-20s %lld\n", key, static_cast<long long>(v->number));
          }
        }
      }
      if (const sash::obs::JsonValue* cache = doc->Find("cache");
          cache != nullptr && cache->is_object()) {
        const sash::obs::JsonValue* hits = cache->Find("hits");
        const sash::obs::JsonValue* misses = cache->Find("misses");
        std::printf("  %-20s %lld hits / %lld misses\n", "cache",
                    hits != nullptr && hits->is_number() ? static_cast<long long>(hits->number) : 0,
                    misses != nullptr && misses->is_number()
                        ? static_cast<long long>(misses->number)
                        : 0);
      }
    } else if (kind == "sash-bench-v1") {
      const sash::obs::JsonValue* name = doc->Find("name");
      if (name != nullptr && name->is_string()) {
        std::printf("  bench: %s\n", name->string.c_str());
      }
      if (const sash::obs::JsonValue* metrics = doc->Find("metrics");
          metrics != nullptr && metrics->is_object()) {
        for (const auto& [key, value] : metrics->object) {
          if (value.is_number()) {
            std::printf("  %-36s %.3f\n", key.c_str(), value.number);
          }
        }
      }
    } else {
      std::printf("  (no summarizer for this schema)\n");
    }
  }
  return 0;
}

// `sash serve`: the resident analysis daemon (this PR's tentpole). Binds a
// unix socket, keeps every warm structure resident, and answers sash-rpc-v1
// requests until a graceful drain (SIGTERM/SIGINT or an rpc `shutdown`)
// completes — then exits 0. Startup failures (live sibling on the socket,
// unwritable pidfile) exit 2.
int CmdServe(const std::vector<std::string>& args) {
  sash::serve::ServerOptions options;
  sash::serve::SupervisorOptions sup_options;
  std::string annotations_file;
  std::string journal_out;
  bool stats = false;
  bool supervise = false;
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto value_of = [&](const char* prefix) { return a.substr(std::strlen(prefix)); };
    auto int64_flag = [&](const char* flag, const std::string& text, int64_t max, int64_t* out) {
      return NumericFlag("serve", flag, text, 0, max, out);
    };
    auto int_flag = [&](const char* flag, const std::string& text, int64_t max, int* out) {
      return NumericFlagInt("serve", flag, text, 0, max, out);
    };
    if (a == "--socket" && i + 1 < args.size()) {
      options.socket_path = args[++i];
    } else if (a.rfind("--socket=", 0) == 0) {
      options.socket_path = value_of("--socket=");
    } else if (a == "--pidfile" && i + 1 < args.size()) {
      options.pidfile = args[++i];
    } else if (a.rfind("--pidfile=", 0) == 0) {
      options.pidfile = value_of("--pidfile=");
    } else if (a == "-j" || a == "--jobs") {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "sash serve: %s requires a count\n", a.c_str());
        return 2;
      }
      if (!int_flag("--jobs", args[++i], kMaxJobs, &options.jobs)) {
        return 2;
      }
    } else if (a.rfind("-j", 0) == 0 && a.size() > 2) {
      if (!int_flag("-j", a.substr(2), kMaxJobs, &options.jobs)) {
        return 2;
      }
    } else if (a.rfind("--jobs=", 0) == 0) {
      if (!int_flag("--jobs", value_of("--jobs="), kMaxJobs, &options.jobs)) {
        return 2;
      }
    } else if (a == "--max-pending" && i + 1 < args.size()) {
      if (!int_flag("--max-pending", args[++i], 1 << 20, &options.max_pending)) {
        return 2;
      }
    } else if (a.rfind("--max-pending=", 0) == 0) {
      if (!int_flag("--max-pending", value_of("--max-pending="), 1 << 20,
                    &options.max_pending)) {
        return 2;
      }
    } else if (a == "--max-connections" && i + 1 < args.size()) {
      if (!int_flag("--max-connections", args[++i], 1 << 20, &options.max_connections)) {
        return 2;
      }
    } else if (a.rfind("--max-connections=", 0) == 0) {
      if (!int_flag("--max-connections", value_of("--max-connections="), 1 << 20,
                    &options.max_connections)) {
        return 2;
      }
    } else if (a == "--deadline-cap-ms" && i + 1 < args.size()) {
      if (!int64_flag("--deadline-cap-ms", args[++i], kMaxMs, &options.deadline_cap_ms)) {
        return 2;
      }
    } else if (a.rfind("--deadline-cap-ms=", 0) == 0) {
      if (!int64_flag("--deadline-cap-ms", value_of("--deadline-cap-ms="), kMaxMs,
                      &options.deadline_cap_ms)) {
        return 2;
      }
    } else if (a == "--default-budget-ms" && i + 1 < args.size()) {
      if (!int64_flag("--default-budget-ms", args[++i], kMaxMs, &options.default_budget_ms)) {
        return 2;
      }
    } else if (a.rfind("--default-budget-ms=", 0) == 0) {
      if (!int64_flag("--default-budget-ms", value_of("--default-budget-ms="), kMaxMs,
                      &options.default_budget_ms)) {
        return 2;
      }
    } else if (a == "--idle-timeout-ms" && i + 1 < args.size()) {
      if (!int64_flag("--idle-timeout-ms", args[++i], kMaxMs, &options.idle_timeout_ms)) {
        return 2;
      }
    } else if (a.rfind("--idle-timeout-ms=", 0) == 0) {
      if (!int64_flag("--idle-timeout-ms", value_of("--idle-timeout-ms="), kMaxMs,
                      &options.idle_timeout_ms)) {
        return 2;
      }
    } else if (a == "--io-timeout-ms" && i + 1 < args.size()) {
      if (!int64_flag("--io-timeout-ms", args[++i], kMaxMs, &options.io_timeout_ms)) {
        return 2;
      }
    } else if (a.rfind("--io-timeout-ms=", 0) == 0) {
      if (!int64_flag("--io-timeout-ms", value_of("--io-timeout-ms="), kMaxMs,
                      &options.io_timeout_ms)) {
        return 2;
      }
    } else if (a == "--drain-deadline-ms" && i + 1 < args.size()) {
      if (!int64_flag("--drain-deadline-ms", args[++i], kMaxMs, &options.drain_deadline_ms)) {
        return 2;
      }
    } else if (a.rfind("--drain-deadline-ms=", 0) == 0) {
      if (!int64_flag("--drain-deadline-ms", value_of("--drain-deadline-ms="), kMaxMs,
                      &options.drain_deadline_ms)) {
        return 2;
      }
    } else if (a == "--max-frame-bytes" && i + 1 < args.size()) {
      int64_t v = 0;
      if (!int64_flag("--max-frame-bytes", args[++i], 1LL << 31, &v)) {
        return 2;
      }
      options.max_frame_bytes = static_cast<uint32_t>(v);
    } else if (a.rfind("--max-frame-bytes=", 0) == 0) {
      int64_t v = 0;
      if (!int64_flag("--max-frame-bytes", value_of("--max-frame-bytes="), 1LL << 31, &v)) {
        return 2;
      }
      options.max_frame_bytes = static_cast<uint32_t>(v);
    } else if (a == "--cache-dir" && i + 1 < args.size()) {
      options.batch.cache_dir = args[++i];
    } else if (a.rfind("--cache-dir=", 0) == 0) {
      options.batch.cache_dir = value_of("--cache-dir=");
    } else if (a == "--no-cache") {
      options.batch.use_cache = false;
    } else if (a == "--annotations" && i + 1 < args.size()) {
      annotations_file = args[++i];
    } else if (a == "--no-warmup") {
      options.warmup = false;
    } else if (a == "--isolate") {
      options.batch.isolate = true;
    } else if (a == "--max-rss-mb" && i + 1 < args.size()) {
      if (!int64_flag("--max-rss-mb", args[++i], kMaxBytes >> 20, &options.batch.max_rss_mb)) {
        return 2;
      }
    } else if (a.rfind("--max-rss-mb=", 0) == 0) {
      if (!int64_flag("--max-rss-mb", value_of("--max-rss-mb="), kMaxBytes >> 20,
                      &options.batch.max_rss_mb)) {
        return 2;
      }
    } else if (a == "--worker-cpu-s" && i + 1 < args.size()) {
      if (!int64_flag("--worker-cpu-s", args[++i], kMaxMs / 1000, &options.batch.worker_cpu_s)) {
        return 2;
      }
    } else if (a.rfind("--worker-cpu-s=", 0) == 0) {
      if (!int64_flag("--worker-cpu-s", value_of("--worker-cpu-s="), kMaxMs / 1000,
                      &options.batch.worker_cpu_s)) {
        return 2;
      }
    } else if (a == "--supervise") {
      supervise = true;
    } else if (a == "--max-restarts" && i + 1 < args.size()) {
      if (!int_flag("--max-restarts", args[++i], 1 << 20, &sup_options.max_restarts)) {
        return 2;
      }
    } else if (a.rfind("--max-restarts=", 0) == 0) {
      if (!int_flag("--max-restarts", value_of("--max-restarts="), 1 << 20,
                    &sup_options.max_restarts)) {
        return 2;
      }
    } else if (a == "--heartbeat-ms" && i + 1 < args.size()) {
      if (!int64_flag("--heartbeat-ms", args[++i], kMaxMs, &sup_options.heartbeat_interval_ms)) {
        return 2;
      }
    } else if (a.rfind("--heartbeat-ms=", 0) == 0) {
      if (!int64_flag("--heartbeat-ms", value_of("--heartbeat-ms="), kMaxMs,
                      &sup_options.heartbeat_interval_ms)) {
        return 2;
      }
    } else if (a == "--stats") {
      stats = true;
    } else if (a == "--journal" && i + 1 < args.size()) {
      journal_out = args[++i];
    } else if (a.rfind("--journal=", 0) == 0) {
      journal_out = value_of("--journal=");
    } else {
      std::fprintf(stderr, "sash serve: unknown option %s\n", a.c_str());
      return 2;
    }
  }
  if (options.socket_path.empty()) {
    std::fprintf(stderr, "sash serve: --socket PATH is required\n");
    return Usage();
  }
  if (!annotations_file.empty() &&
      !ReadSource(annotations_file, &options.batch.annotations_text)) {
    return 2;
  }
  if (options.batch.max_rss_mb > 0 || options.batch.worker_cpu_s > 0) {
    options.batch.isolate = true;  // Caps only apply inside a worker.
  }

  if (supervise) {
    // Self-healing mode: the daemon runs in a child; this process only
    // watches, restarts, and forwards signals. The pidfile (written by the
    // child) names the daemon, not the supervisor. Exit 0 after the daemon's
    // graceful drain, 2/3 on startup failure, 1 when the restart budget is
    // exhausted. --journal is honored per incarnation: each child keeps its
    // own journal and flushes it on graceful drain (a SIGKILLed incarnation
    // cannot flush; the last healthy one wins).
    sup_options.journal_path = journal_out;
    sash::serve::Supervisor supervisor(std::move(options), sup_options);
    sash::serve::Supervisor::InstallSignalForward(&supervisor);
    std::fprintf(stderr, "sash serve: supervising (pid %d)\n", static_cast<int>(getpid()));
    std::string error;
    int rc = supervisor.Run(&error);
    sash::serve::Supervisor::InstallSignalForward(nullptr);
    if (!error.empty()) {
      std::fprintf(stderr, "sash serve: %s\n", error.c_str());
    }
    std::fprintf(stderr, "sash serve: supervisor exiting (%lld restarts)\n",
                 static_cast<long long>(supervisor.restarts()));
    return rc;
  }

  // The registry always exists: the rpc `stats` op renders it.
  sash::obs::Session session({.journal_out = journal_out, .metrics = true});
  options.batch.obs = session.hooks();

  sash::serve::Server server(std::move(options));
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "sash serve: %s\n", error.c_str());
    return 2;
  }
  sash::serve::Server::InstallSignalDrain(&server);
  std::fprintf(stderr, "sash serve: listening on %s (pid %d)\n",
               server.options().socket_path.c_str(), static_cast<int>(getpid()));
  server.AwaitStopped();
  sash::serve::Server::InstallSignalDrain(nullptr);
  server.Stop();
  sash::serve::ServerStats final_stats = server.stats();
  std::fprintf(stderr,
               "sash serve: drained (%lld requests, %lld responses, %lld shed, "
               "%lld timed out, %lld cancelled at drain)\n",
               static_cast<long long>(final_stats.requests),
               static_cast<long long>(final_stats.responses),
               static_cast<long long>(final_stats.shed),
               static_cast<long long>(final_stats.timeouts),
               static_cast<long long>(final_stats.drain_cancelled));
  if (stats) {
    PrintStats(*session.metrics());
  }
  return session.Finish("sash serve") ? 0 : 2;
}

int CmdTypeof(const std::vector<std::string>& args) {
  if (args.empty()) {
    return Usage();
  }
  sash::syntax::ParseOutput parsed = sash::syntax::Parse(args[0]);
  if (!parsed.ok() || parsed.program.body == nullptr) {
    std::fprintf(stderr, "sash typeof: cannot parse pipeline\n");
    return 2;
  }
  sash::rtypes::TypeLibrary lib = sash::rtypes::TypeLibrary::Default();
  sash::stream::PipelineChecker checker(lib);
  sash::stream::PipelineReport report = checker.Check(*parsed.program.body);
  for (const sash::stream::StageReport& s : report.stages) {
    std::printf("%-30s :: %s%s\n", s.command.c_str(),
                s.type_display.value_or("(untyped)").c_str(),
                s.killed_stream ? "   <- DEAD STREAM" : s.type_error ? "   <- TYPE ERROR" : "");
  }
  if (report.final_output.has_value()) {
    std::printf("output line type: %s  (typeOf: %s)\n", report.final_output->pattern().c_str(),
                sash::rtypes::TypeOf(lib, *report.final_output).c_str());
  }
  return report.has_dead_stream || report.has_type_error ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  std::string cmd = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  if (cmd == "analyze") {
    return CmdAnalyze(args);
  }
  if (cmd == "lint") {
    return CmdLint(args);
  }
  if (cmd == "run") {
    return CmdRun(args);
  }
  if (cmd == "verify") {
    return CmdVerify(args);
  }
  if (cmd == "mine") {
    return CmdMine(args);
  }
  if (cmd == "profile") {
    return CmdProfile(args);
  }
  if (cmd == "report") {
    return CmdReport(args);
  }
  if (cmd == "serve") {
    return CmdServe(args);
  }
  if (cmd == "typeof") {
    return CmdTypeof(args);
  }
  if (cmd == "version" || cmd == "--version") {
    std::printf("sash %s\n", sash::core::kVersion);
    return 0;
  }
  return Usage();
}
