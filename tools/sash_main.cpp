// The sash command-line tool. `sash` with no arguments prints the usage.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <span>
#include <variant>

#include "batch/batch.h"
#include "core/analyzer.h"
#include "core/version.h"
#include "mining/pipeline.h"
#include "monitor/guard.h"
#include "monitor/interp.h"
#include "obs/obs.h"
#include "obs/procstat.h"
#include "obs/profile.h"
#include "obs/report.h"
#include "obs/session.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/supervisor.h"
#include "stream/pipeline.h"
#include "util/faultinject.h"
#include "util/file.h"
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
               "          [--folded profile.folded] [--via SOCKET [--fallback local|fail]]\n"
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
               "  report  [--journal events.jsonl] [batch.json|bench.json]...\n"
               "  lint <script.sh>\n"
               "  run <script.sh> [args...]\n"
               "  verify [--no-rw PATH]... [--no-read PATH]... <script.sh>\n"
               "  mine [command]\n"
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
               "--journal, --trace-out and --folded write the run's event journal\n"
               "and its Chrome-trace and flamegraph views; `sash report --journal`\n"
               "summarizes a journal's workers, phases and run\n"
               "serve: exit 0 after a graceful drain (SIGTERM/SIGINT), 2 on startup\n"
               "failure. --supervise restarts the daemon on abnormal death (bounded\n"
               "backoff, heartbeat watchdog); exit 1 when --max-restarts is exhausted.\n"
               "analyze --via uses a resident server (bounded retry with\n"
               "backoff); --fallback local degrades to in-process analysis when the\n"
               "server is unreachable, --fallback fail (default) exits 2\n");
  return 2;
}

// Flag ranges shared by analyze and serve.
inline constexpr int64_t kMaxJobs = 4096;
inline constexpr int64_t kMaxMs = 1000000000;          // ~11.5 days.
inline constexpr int64_t kMaxBytes = 1LL << 40;        // 1 TiB.

// Each verb declares its flags once, in static tables, and ParseFlags is the
// one loop that reads them. A flag's kind follows from its field's type:
//   - bool: a switch, which stores `on`;
//   - std::string or std::filesystem::path: one value;
//   - std::vector<std::string>: one value, appended each time it is given;
//   - an integer: a value parsed strictly and checked against [min, max].
// A valued flag is spelled `--flag V` or `--flag=V`; one with an `alias`
// such as "-j" also takes `-jN` and `-j N`.
template <typename T>
struct Flag {
  std::string_view name;
  std::variant<bool T::*, int T::*, int64_t T::*, uint32_t T::*, std::string T::*,
               std::filesystem::path T::*, std::vector<std::string> T::*>
      field;
  int64_t min = 0;
  int64_t max = 0;
  std::string_view alias = {};
  bool on = true;
};

// A flag table bound to the object its fields live in.
template <typename T>
struct FlagGroup {
  std::span<const Flag<T>> flags;
  T* target;
};
template <typename T, size_t N>
FlagGroup(const Flag<T> (&)[N], T*) -> FlagGroup<T>;

enum class FlagMatch { kNone, kStored, kBad };

// Matches the option args[*i] against one table and stores its value,
// advancing *i past a value given as the next argument. kNone when no flag
// of this table is spelled that way.
template <typename T>
FlagMatch ParseFlag(const char* verb, FlagGroup<T> group, const std::vector<std::string>& args,
                    size_t* i) {
  const std::string_view arg = args[*i];
  const bool is_long = arg[1] == '-';
  const size_t cut = std::min(is_long ? arg.find('=') : 2, arg.size());
  const std::string spelling(arg.substr(0, cut));
  for (const Flag<T>& flag : group.flags) {
    if (spelling != flag.name && spelling != flag.alias) {
      continue;
    }
    std::string value;
    if (std::holds_alternative<bool T::*>(flag.field)) {
      if (cut < arg.size()) {
        return FlagMatch::kNone;  // A switch takes no "=value".
      }
    } else {
      if (cut < arg.size()) {
        value = arg.substr(is_long ? cut + 1 : cut);
      } else if (*i + 1 < args.size()) {
        value = args[++*i];
      }
      if (value.empty()) {  // Missing, or given as "--flag=" or "--flag ''".
        std::fprintf(stderr, "sash %s: %s requires a value\n", verb, spelling.c_str());
        return FlagMatch::kBad;
      }
    }
    return std::visit(
        [&](auto field) {
          auto& dest = group.target->*field;
          using Dest = std::remove_reference_t<decltype(dest)>;
          if constexpr (std::is_same_v<Dest, bool>) {
            dest = flag.on;
          } else if constexpr (std::is_integral_v<Dest>) {
            // Strict: where atoi would read "4x" as 4 or saturate on
            // overflow, anything but an in-range integer is an error.
            int64_t n = 0;
            if (!sash::ParseInt64(value, &n)) {
              std::fprintf(stderr, "sash %s: %s expects an integer, got '%s'\n", verb,
                           spelling.c_str(), value.c_str());
              return FlagMatch::kBad;
            }
            if (n < flag.min || n > flag.max) {
              std::fprintf(stderr, "sash %s: %s must be between %lld and %lld, got '%s'\n",
                           verb, spelling.c_str(), static_cast<long long>(flag.min),
                           static_cast<long long>(flag.max), value.c_str());
              return FlagMatch::kBad;
            }
            dest = static_cast<Dest>(n);
          } else if constexpr (std::is_same_v<Dest, std::vector<std::string>>) {
            dest.push_back(std::move(value));
          } else {
            dest = std::move(value);
          }
          return FlagMatch::kStored;
        },
        flag.field);
  }
  return FlagMatch::kNone;
}

// Parses `args` against the verb's flag tables: every option is stored, every
// other argument (including "-", the stdin operand) is appended to
// *operands. False, after a diagnostic, on an unknown option, a missing
// value, or a bad number; the caller exits 2.
template <typename... T>
bool ParseFlags(const char* verb, const std::vector<std::string>& args,
                std::vector<std::string>* operands, FlagGroup<T>... groups) {
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.size() < 2 || arg[0] != '-') {
      operands->push_back(arg);
      continue;
    }
    FlagMatch match = FlagMatch::kNone;
    ((match = match == FlagMatch::kNone ? ParseFlag(verb, groups, args, &i) : match), ...);
    if (match == FlagMatch::kNone) {
      std::fprintf(stderr, "sash %s: unknown option %s\n", verb, arg.c_str());
    }
    if (match != FlagMatch::kStored) {
      return false;
    }
  }
  return true;
}

using sash::batch::BatchOptions;
using sash::core::AnalyzerOptions;

// -j/--jobs, --cache-dir and --no-cache: analyze and serve.
constexpr Flag<BatchOptions> kJobsAndCacheFlags[] = {
    {.name = "--jobs", .field = &BatchOptions::jobs, .max = kMaxJobs, .alias = "-j"},
    {"--cache-dir", &BatchOptions::cache_dir},
    {.name = "--no-cache", .field = &BatchOptions::use_cache, .on = false},
};

// --isolate, --max-rss-mb and --worker-cpu-s: analyze and serve.
constexpr Flag<BatchOptions> kIsolateFlags[] = {
    {"--isolate", &BatchOptions::isolate},
    {"--max-rss-mb", &BatchOptions::max_rss_mb, 0, kMaxBytes >> 20},
    {"--worker-cpu-s", &BatchOptions::worker_cpu_s, 0, kMaxMs / 1000},
};

// Resource caps only apply inside a worker process, so they imply one.
void ImplyIsolate(BatchOptions* batch) {
  batch->isolate = batch->isolate || batch->max_rss_mb > 0 || batch->worker_cpu_s > 0;
}

// The `--stats` table, written to stderr so it never mixes with the report
// on stdout: one line per statistic, sorted by name.
void PrintStats(const sash::obs::NamedValues& values) {
  std::fprintf(stderr, "--- metrics ---\n");
  for (const auto& [name, value] : values) {
    std::fprintf(stderr, "  %-32s %10lld\n", name.c_str(), static_cast<long long>(value));
  }
}

// `analyze --stats`: the batch's own counts, the sum of its per-file
// analysis counts (when any analysis ran in this process), its cache and
// commit queue, and the process-wide figures read now.
sash::obs::NamedValues BatchStats(const sash::batch::BatchResult& result, bool isolate) {
  using sash::batch::FileStatus;
  auto count = [&result](FileStatus status) {
    return static_cast<int64_t>(result.CountStatus(status));
  };
  sash::obs::NamedValues v = {
      {"batch.files", static_cast<int64_t>(result.files.size())},
      {"batch.jobs", result.jobs},
      {"batch.steals", result.steals},
      {"resilience.timeouts", count(FileStatus::kTimedOut)},
      {"resilience.degraded", count(FileStatus::kDegraded)},
      {"resilience.failed", count(FileStatus::kFailed)},
      {"resilience.crashed", count(FileStatus::kCrashed)},
      {"process.rss_kb", sash::obs::CurrentRssKb()},
      {"process.peak_rss_kb", sash::obs::PeakRssKb()},
  };
  if (const sash::core::AnalysisStats& a = result.analysis; a.runs > 0) {
    const sash::symex::EngineStats& e = a.engine;
    const sash::stream::CheckStats& st = a.stream;
    v.insert({
        {"analyzer.runs", a.runs},
        {"analyzer.findings", a.findings},
        {"diagnostics.warnings_or_worse", a.warnings_or_worse},
        {"symex.commands_executed", e.commands_executed},
        {"symex.forks", e.forks},
        {"symex.states_peak", e.states_peak},
        {"symex.states_merged", e.states_merged},
        {"symex.states_dropped", e.states_dropped},
        {"symex.final_states", e.final_states},
        {"symex.fs_ops", e.fs_ops},
        {"symex.digest_collisions", e.digest_collisions},
        {"symex.depth_cap_hits", e.depth_cap_hits},
        {"symex.cancelled", e.cancelled},
        {"stream.pipelines_checked", st.pipelines_checked},
        {"stream.stages_typed", st.stages_typed},
        {"stream.stages_untyped", st.stages_untyped},
        {"stream.type_errors", st.type_errors},
        {"stream.dead_streams", st.dead_streams},
    });
    sash::core::AddHotpathStats(&v);
  }
  sash::batch::AddCacheStats(result.cache, &v);
  v.insert({{"cache.commit.enqueued", result.commit.enqueued},
            {"cache.commit.committed", result.commit.committed},
            {"cache.commit.drains", result.commit.drains}});
  if (isolate) {
    v.insert({{"crash.workers", result.crash.workers},
              {"crash.oom", result.crash.oom},
              {"crash.worker_exits", result.crash.worker_exits},
              {"crash.spawn_fallbacks", result.crash.spawn_fallbacks},
              {"crash.quarantined", result.crash.quarantined}});
  }
  if (sash::util::FaultInjector::enabled()) {
    v["faults.injected"] = sash::util::FaultInjector::fires();
  }
  return v;
}

// The wall times of the files that produced a report: their count and
// exact nearest-rank percentiles.
void PrintFileMicros(const sash::batch::BatchResult& result) {
  std::vector<int64_t> micros;
  for (const sash::batch::FileResult& f : result.files) {
    if (f.ok) {
      micros.push_back(f.micros);
    }
  }
  if (micros.empty()) {
    return;
  }
  std::sort(micros.begin(), micros.end());
  auto percentile = [&micros](size_t p) {
    return static_cast<long long>(micros[(micros.size() * p + 99) / 100 - 1]);
  };
  std::fprintf(stderr, "  %-32s count=%zu p50=%lld p99=%lld\n", "batch.file_micros",
               micros.size(), percentile(50), percentile(99));
}

bool ReadSource(const std::string& path, std::string* out) {
  if (!sash::util::ReadFile(path, out)) {
    std::fprintf(stderr, "sash: cannot open %s\n", path.c_str());
    return false;
  }
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
    file.status = file.ok && r.file_status.empty() ? sash::batch::FileStatus::kOk
                                                   : sash::batch::FileStatusFromName(r.file_status);
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

// analyze's own flags; its batch and analyzer flags land in BatchOptions.
struct AnalyzeArgs {
  std::string annotations;
  std::string trace_out;
  std::string journal_out;
  std::string folded_out;
  std::string via;
  std::string fallback = "fail";
  std::string format = "text";
  bool stats = false;
};

constexpr Flag<AnalyzeArgs> kAnalyzeFlags[] = {
    {"--annotations", &AnalyzeArgs::annotations},
    {"--trace-out", &AnalyzeArgs::trace_out},
    {"--folded", &AnalyzeArgs::folded_out},
    {"--journal", &AnalyzeArgs::journal_out},
    {"--stats", &AnalyzeArgs::stats},
    {"--format", &AnalyzeArgs::format},
    {"--via", &AnalyzeArgs::via},
    {"--fallback", &AnalyzeArgs::fallback},
};

constexpr Flag<BatchOptions> kAnalyzeBatchFlags[] = {
    {"--deadline-ms", &BatchOptions::deadline_ms, 0, kMaxMs},
    {"--fail-fast", &BatchOptions::fail_fast},
};

constexpr Flag<AnalyzerOptions> kAnalyzerFlags[] = {
    {"--max-input-bytes", &AnalyzerOptions::max_input_bytes, 0, kMaxBytes},
    {"--idempotence", &AnalyzerOptions::enable_idempotence_check},
    {"--coach", &AnalyzerOptions::enable_optimization_coach},
    {"--lint", &AnalyzerOptions::enable_lint},
    {.name = "--no-symex", .field = &AnalyzerOptions::enable_symex, .on = false},
    {.name = "--no-stream", .field = &AnalyzerOptions::enable_stream_types, .on = false},
};

int CmdAnalyze(const std::vector<std::string>& args) {
  BatchOptions batch;
  AnalyzeArgs cli;
  std::vector<std::string> inputs;
  if (!ParseFlags("analyze", args, &inputs, FlagGroup{kJobsAndCacheFlags, &batch},
                  FlagGroup{kIsolateFlags, &batch}, FlagGroup{kAnalyzeBatchFlags, &batch},
                  FlagGroup{kAnalyzerFlags, &batch.analyzer}, FlagGroup{kAnalyzeFlags, &cli})) {
    return 2;
  }
  if (inputs.empty()) {
    return Usage();
  }
  if (cli.format != "text" && cli.format != "json") {
    std::fprintf(stderr, "sash analyze: unknown format %s\n", cli.format.c_str());
    return 2;
  }
  if (cli.fallback != "fail" && cli.fallback != "local") {
    std::fprintf(stderr, "sash analyze: --fallback expects 'local' or 'fail', got '%s'\n",
                 cli.fallback.c_str());
    return 2;
  }
  ImplyIsolate(&batch);

  if (!cli.annotations.empty() && !ReadSource(cli.annotations, &batch.annotations_text)) {
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

  // Observability is opt-in: the journal only behind --journal, --trace-out
  // or --folded (the trace and the folded stacks are rendered from it).
  sash::obs::Session session({.trace_out = cli.trace_out,
                              .journal_out = cli.journal_out,
                              .folded_out = cli.folded_out});
  batch.journal = session.journal();

  sash::batch::BatchResult result;
  bool via_filled = false;
  if (!cli.via.empty()) {
    int rc = AnalyzeVia(cli.via, cli.fallback == "local", batch, files, &result);
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
  if (cli.format == "json") {
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
  if (cli.stats) {
    PrintStats(BatchStats(result, batch.isolate));
    PrintFileMicros(result);
  }
  return session.Finish("sash") ? result.ExitCode() : 2;
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

constexpr Flag<sash::symex::EffectPolicy> kVerifyFlags[] = {
    {"--no-rw", &sash::symex::EffectPolicy::no_write},
    {"--no-read", &sash::symex::EffectPolicy::no_read},
};

int CmdVerify(const std::vector<std::string>& args) {
  sash::symex::EffectPolicy policy;
  std::vector<std::string> operands;
  if (!ParseFlags("verify", args, &operands, FlagGroup{kVerifyFlags, &policy})) {
    return 2;
  }
  if (operands.empty()) {
    return Usage();
  }
  std::string source;
  if (!ReadSource(operands.back(), &source)) {
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
  for (const sash::Diagnostic& d : report.static_findings) {
    std::printf("static %s\n", d.ToString().c_str());
  }
  if (report.blocked) {
    std::printf("BLOCKED: %s\n", report.block_reason.c_str());
    return 1;
  }
  std::printf("verified run completed (exit %d)\n", report.run.exit_code);
  return report.static_findings.empty() ? 0 : 1;
}

int CmdMine(const std::vector<std::string>& args) {
  std::vector<std::string> operands;
  if (!ParseFlags("mine", args, &operands)) {
    return 2;
  }
  if (operands.size() > 1) {
    return Usage();
  }
  if (!operands.empty()) {
    sash::mining::MiningOutcome o = sash::mining::MineCommand(operands.front());
    if (!o.ok) {
      std::fprintf(stderr, "sash mine: %s\n", o.error.c_str());
      return 1;
    }
    std::printf("%s — %d probes, %d cases, %.1f%% agreement\n%s", o.command.c_str(), o.probes,
                o.cases, 100.0 * o.validation.Agreement(), o.spec.ToString().c_str());
    return 0;
  }
  for (const sash::mining::MiningOutcome& o : sash::mining::MineAll()) {
    std::printf("%-10s %s (%d probes, %d cases, %.1f%% agreement)\n", o.command.c_str(),
                o.ok ? "ok" : o.error.c_str(), o.probes, o.cases,
                100.0 * o.validation.Agreement());
  }
  return 0;
}

// `sash report`: aggregate journal/bench artifacts into a human summary.
// A --journal file yields the worker/phase/run report; sash-batch-v1
// and sash-bench-v1 JSON documents are summarized after it.
struct ReportArgs {
  std::string journal;
};

constexpr Flag<ReportArgs> kReportFlags[] = {{"--journal", &ReportArgs::journal}};

int CmdReport(const std::vector<std::string>& args) {
  ReportArgs cli;
  std::vector<std::string> json_paths;
  if (!ParseFlags("report", args, &json_paths, FlagGroup{kReportFlags, &cli})) {
    return 2;
  }
  if (cli.journal.empty() && json_paths.empty()) {
    return Usage();
  }

  if (!cli.journal.empty()) {
    std::string text;
    if (!ReadSource(cli.journal, &text)) {
      return 2;
    }
    std::vector<std::string> problems;
    std::optional<sash::obs::JournalSummary> summary =
        sash::obs::SummarizeJsonl(text, &problems);
    if (!summary.has_value()) {
      std::fprintf(stderr, "sash report: %s is not a valid %s document:\n", cli.journal.c_str(),
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
    } else if (kind == sash::obs::kBenchSchema) {
      if (const sash::obs::JsonValue* bench = doc->Find("bench");
          bench != nullptr && bench->is_string()) {
        std::printf("  bench: %s\n", bench->string.c_str());
      }
      if (const sash::obs::JsonValue* metrics = doc->Find("metrics"); metrics != nullptr) {
        for (const char* section : {"counters", "gauges"}) {
          const sash::obs::JsonValue* values = metrics->Find(section);
          if (values == nullptr) {
            continue;
          }
          for (const auto& [key, value] : values->object) {
            if (value.is_number()) {
              std::printf("  %-36s %lld\n", key.c_str(), static_cast<long long>(value.number));
            }
          }
        }
      }
    } else {
      std::printf("  (no summarizer for this schema)\n");
    }
  }
  return 0;
}

// `sash serve`: the resident analysis daemon. Binds a unix socket, keeps
// every warm structure resident, and answers sash-rpc-v1 requests until a
// graceful drain (SIGTERM/SIGINT or an rpc `shutdown`) completes — then
// exits 0. Startup failures (live sibling on the socket, unwritable
// pidfile) exit 2.
//
// serve's own flags; the server and supervisor flags land in their options.
struct ServeArgs {
  std::string annotations;
  std::string journal_out;
  bool stats = false;
  bool supervise = false;
};

constexpr Flag<ServeArgs> kServeFlags[] = {
    {"--annotations", &ServeArgs::annotations},
    {"--journal", &ServeArgs::journal_out},
    {"--stats", &ServeArgs::stats},
    {"--supervise", &ServeArgs::supervise},
};

using sash::serve::ServerOptions;
using sash::serve::SupervisorOptions;

constexpr Flag<ServerOptions> kServerFlags[] = {
    {"--socket", &ServerOptions::socket_path},
    {"--pidfile", &ServerOptions::pidfile},
    {"--max-pending", &ServerOptions::max_pending, 0, 1 << 20},
    {"--max-connections", &ServerOptions::max_connections, 0, 1 << 20},
    {"--deadline-cap-ms", &ServerOptions::deadline_cap_ms, 0, kMaxMs},
    {"--default-budget-ms", &ServerOptions::default_budget_ms, 0, kMaxMs},
    {"--idle-timeout-ms", &ServerOptions::idle_timeout_ms, 0, kMaxMs},
    {"--io-timeout-ms", &ServerOptions::io_timeout_ms, 0, kMaxMs},
    {"--drain-deadline-ms", &ServerOptions::drain_deadline_ms, 0, kMaxMs},
    {"--max-frame-bytes", &ServerOptions::max_frame_bytes, 0, 1LL << 31},
    {.name = "--no-warmup", .field = &ServerOptions::warmup, .on = false},
};

constexpr Flag<SupervisorOptions> kSupervisorFlags[] = {
    {"--max-restarts", &SupervisorOptions::max_restarts, 0, 1 << 20},
    {"--heartbeat-ms", &SupervisorOptions::heartbeat_interval_ms, 0, kMaxMs},
};

int CmdServe(const std::vector<std::string>& args) {
  ServerOptions options;
  SupervisorOptions sup_options;
  ServeArgs cli;
  std::vector<std::string> operands;
  // The shared -j sets BatchOptions::jobs; the server sizes its pool from
  // ServerOptions::jobs (default 0: one thread per core).
  options.batch.jobs = options.jobs;
  if (!ParseFlags("serve", args, &operands, FlagGroup{kJobsAndCacheFlags, &options.batch},
                  FlagGroup{kIsolateFlags, &options.batch}, FlagGroup{kServerFlags, &options},
                  FlagGroup{kSupervisorFlags, &sup_options}, FlagGroup{kServeFlags, &cli})) {
    return 2;
  }
  options.jobs = options.batch.jobs;
  if (!operands.empty()) {
    std::fprintf(stderr, "sash serve: unknown option %s\n", operands.front().c_str());
    return 2;
  }
  if (options.socket_path.empty()) {
    std::fprintf(stderr, "sash serve: --socket PATH is required\n");
    return Usage();
  }
  if (!cli.annotations.empty() && !ReadSource(cli.annotations, &options.batch.annotations_text)) {
    return 2;
  }
  ImplyIsolate(&options.batch);

  if (cli.supervise) {
    // Self-healing mode: the daemon runs in a child; this process only
    // watches, restarts, and forwards signals. The pidfile (written by the
    // child) names the daemon, not the supervisor. Exit 0 after the daemon's
    // graceful drain, 2/3 on startup failure, 1 when the restart budget is
    // exhausted. --journal is honored per incarnation: each child keeps its
    // own journal and flushes it on graceful drain (a SIGKILLed incarnation
    // cannot flush; the last healthy one wins).
    sup_options.journal_path = cli.journal_out;
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

  sash::obs::Session session({.journal_out = cli.journal_out});
  options.batch.journal = session.journal();

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
  if (cli.stats) {
    PrintStats(server.StatValues());
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
  const sash::rtypes::TypeLibrary& lib = sash::rtypes::TypeLibrary::Default();
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

int CmdVersion(const std::vector<std::string>& /*args*/) {
  std::printf("sash %s\n", sash::core::kVersion);
  return 0;
}

constexpr struct {
  std::string_view name;
  int (*run)(const std::vector<std::string>& args);
} kVerbs[] = {
    {"analyze", CmdAnalyze}, {"lint", CmdLint},     {"run", CmdRun},
    {"verify", CmdVerify},   {"mine", CmdMine},     {"report", CmdReport},
    {"serve", CmdServe},     {"typeof", CmdTypeof}, {"version", CmdVersion},
    {"--version", CmdVersion},
};

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2) {
    for (const auto& verb : kVerbs) {
      if (verb.name == argv[1]) {
        return verb.run(std::vector<std::string>(argv + 2, argv + argc));
      }
    }
  }
  return Usage();
}
