// batch_cold: sweeps of the 1,000-script corpus, each one
// `sash analyze -jN --format=json --cache-dir <empty>` per quarter of it, the
// cache emptied before each, so every file is a miss plus a write. Parse,
// annotations, stream typing, symex, report rendering, entry encoding and
// the commit queue do almost all the work; a fixed share of state-cap
// scripts gives the pool a heavy tail. Latency is the summed spawn → exit
// time of a sweep's four batches, as the benchmark sees it; nothing
// end-to-end is taken from sash's own timers.
#include <algorithm>
#include <cstdio>
#include <iterator>
#include <string_view>

#include "batch/batch.h"
#include "batch/cache.h"
#include "bench.h"
#include "corpus.h"
#include "regex/regex.h"

namespace perfbench {

namespace {

constexpr int kScripts = 1000;
// Each batch is one of kParts consecutive slices of the corpus, so the host
// reference is timed about thirty times a run, after every batch; every
// slice holds the same number of heavy scripts.
constexpr int kParts = 4;
constexpr int kPerPart = kScripts / kParts;

ScriptMix BatchMix() {
  ScriptMix mix;
  mix.min_statements = 4;
  mix.max_statements = 60;
  mix.pattern_pool = 256;
  mix.heavy_per_mille = 20;  // 20 of 1,000 overflow the state cap.
  return mix;
}

struct BatchSetup {
  std::vector<Script> scripts;
  std::string dir;  // Holds one directory of scripts per part, nothing else.
  double bytes = 0;
};

std::string PartDir(const BatchSetup& s, int part) { return s.dir + "/" + std::to_string(part); }

// One worker per CPU the run is pinned to (two, see main.cc).
int Jobs(const Options& o) { return o.cpus; }

bool SetUp(const Options& o, int rep, BatchSetup* s, Result* result) {
  *s = BatchSetup{};
  s->dir = o.work + "/batch" + std::to_string(rep) + "/scripts";
  RemoveTree(s->dir);
  for (int part = 0; part < kParts; ++part) {
    if (!MakeDirs(PartDir(*s, part))) {
      result->Wrong("cannot create " + PartDir(*s, part));
      return false;
    }
  }
  s->scripts = GenerateScripts(o.seed, kScripts, BatchMix());
  for (int i = 0; i < kScripts; ++i) {
    const Script& script = s->scripts[static_cast<size_t>(i)];
    s->bytes += static_cast<double>(script.text.size());
    if (!WriteFile(PartDir(*s, i / kPerPart) + "/" + script.name, script.text)) {
      result->Wrong("cannot write " + script.name);
      return false;
    }
  }
  // Warm-up: one cold batch over the first tenth of the corpus, so the
  // binary and the scripts are in the page cache before anything is timed.
  const std::string warm_dir = o.work + "/batch" + std::to_string(rep) + "/warmup";
  MakeDirs(warm_dir);
  for (int i = 0; i < kScripts / 10; ++i) {
    WriteFile(warm_dir + "/" + s->scripts[static_cast<size_t>(i)].name,
              s->scripts[static_cast<size_t>(i)].text);
  }
  ProcResult warm = RunProcess({o.sash, "analyze", "-j" + std::to_string(Jobs(o)),
                                "--format=json", "--cache-dir", warm_dir + "-cache", warm_dir},
                               false);
  if (warm.exit_code != 0 && warm.exit_code != 1) {
    result->Wrong("batch_cold warm-up run exited " + std::to_string(warm.exit_code));
    return false;
  }
  return true;
}

// One cold batch over one part of the corpus, every report checked against
// its known answer.
ProcResult RunOnce(const Options& o, const BatchSetup& s, int part,
                   const std::string& cache_dir, Result* result) {
  RemoveTree(cache_dir);
  ProcResult run = RunProcess({o.sash, "analyze", "-j" + std::to_string(Jobs(o)), "--format=json",
                                "--cache-dir", cache_dir, PartDir(s, part)},
                               true);
  result->attempted += kPerPart;
  std::optional<Json> doc = ParseJson(run.out);
  const Json* results = doc.has_value() ? doc->Get("results") : nullptr;
  const Json* cache = doc.has_value() ? doc->Get("cache") : nullptr;
  const Json* misses = cache != nullptr ? cache->Get("misses") : nullptr;
  if (run.exit_code != 1 || results == nullptr ||
      results->items.size() != static_cast<size_t>(kPerPart) || misses == nullptr ||
      misses->number != static_cast<double>(kPerPart)) {
    result->failed += kPerPart;
    result->Wrong("batch_cold: the run exited " + std::to_string(run.exit_code) +
                  " without one cold report per file");
    return run;
  }
  for (size_t k = 0; k < static_cast<size_t>(kPerPart); ++k) {
    const Script& script = s.scripts[static_cast<size_t>(part * kPerPart) + k];
    const Json& file = results->items[k];
    const Json* path = file.Get("file");
    const Json* report = file.Get("report");
    std::string wrong;
    if (path == nullptr || path->text != PartDir(s, part) + "/" + script.name ||
        report == nullptr) {
      wrong = script.name + ": missing or out of order";
    } else {
      wrong = CheckReport(script, *report);
    }
    if (!wrong.empty()) {
      result->FailOp("batch_cold " + wrong);
    }
  }
  return run;
}

void Measure(const Options& o, const BatchSetup& s, Result* result) {
  const std::string cache_dir = o.work + "/batch-cache";
  WindowLog log;
  double peak_rss = 0;
  double sweep_ms = 0;
  double sweep_cpu_ms = 0;
  int runs = 0;
  const int64_t deadline = NowNs() + static_cast<int64_t>(o.seconds) * 1000000000;
  while (runs % kParts != 0 || runs == 0 || NowNs() < deadline) {
    ProcResult run = RunOnce(o, s, runs % kParts, cache_dir, result);
    ++runs;
    sweep_ms += static_cast<double>(run.wall_ns) / 1e6;
    sweep_cpu_ms += run.cpu_ms;
    if (runs % kParts == 0) {
      log.Add(sweep_ms, kScripts, sweep_cpu_ms);
      sweep_ms = 0;
      sweep_cpu_ms = 0;
    }
    log.Close();
    peak_rss = std::max(peak_rss, run.maxrss_mb);
  }
  RemoveTree(cache_dir);
  std::fprintf(stderr, "batch_cold: %d sweeps of %d batches of %d files at -j%d\n",
               runs / kParts, kParts, kPerPart, Jobs(o));
  SetEndToEnd(result, log.totals());
  result->Set("peak_rss_mb", peak_rss, "MB");
}

struct PassTotals {
  double wall_s = 0;
  double pattern_hits = 0;
  double pattern_misses = 0;
  double commands = 0;
  double forks = 0;
  double merged = 0;
  double dropped = 0;
  double pipelines = 0;
  double degraded = 0;
  std::vector<double> file_us;
  double file_us_sum = 0;
};

// The layer span each AnalyzeSource phase is recorded as: `serial` inside
// one AnalyzeSource call, `workers` as a share of the parallel batch run.
// Phases not listed here (off by default) stay in their parent's self time.
struct PhaseSpan {
  const char* phase;
  const char* serial;
  const char* workers;
};
constexpr PhaseSpan kPhaseSpans[] = {
    {"parse", "syntax.parse", "syntax.parse_workers"},
    {"annotations", "annot.inline", "annot.inline_workers"},
    {"stream-typing", "stream.check", "stream.check_workers"},
    {"symex", "symex.run", "symex.run_workers"},
};

const PhaseSpan* FindPhaseSpan(std::string_view phase) {
  for (const PhaseSpan& p : kPhaseSpans) {
    if (phase == p.phase) {
      return &p;
    }
  }
  return nullptr;
}

// Lays `micros[k]` (one duration per kPhaseSpans entry) end to end from
// `start` as children of span `parent`, cut off at `end`.
void AddPhaseChildren(SpanLog* log, int parent, int64_t start, int64_t end,
                      const double (&micros)[std::size(kPhaseSpans)], bool workers) {
  for (size_t k = 0; k < std::size(kPhaseSpans); ++k) {
    const int64_t stop = std::min(end, start + static_cast<int64_t>(micros[k] * 1e3));
    log->AddChild(workers ? kPhaseSpans[k].workers : kPhaseSpans[k].serial, start, stop, -1,
                  parent);
    start = stop;
  }
}

// The traced pass: BatchDriver::RunSources over the corpus at -jN into a
// fresh cache (the span's children split its wall time by the phase times
// the reports list, summed over files and divided by the job count), then
// every file once more on this thread through AnalyzeSource (its own phase
// times as children), rendering, key, entry encoding and Cache::Put.
PassTotals TracedPass(const Options& o, const BatchSetup& s, SpanLog* log, Result* result) {
  PassTotals totals;
  const std::string cache_a = o.work + "/trace-cache-a";
  const std::string cache_b = o.work + "/trace-cache-b";
  RemoveTree(cache_a);
  RemoveTree(cache_b);
  sash::regex::PatternCache::Clear();
  std::vector<std::pair<std::string, std::string>> sources;
  for (const Script& script : s.scripts) {
    sources.emplace_back(script.name, script.text);
  }
  const int64_t start = NowNs();
  Scope root(log, "batch_cold");

  sash::batch::BatchOptions options;
  options.jobs = Jobs(o);
  options.cache_dir = cache_a;
  const uint64_t hits0 = sash::regex::PatternCache::Hits();
  const uint64_t misses0 = sash::regex::PatternCache::Misses();
  const int64_t run_start = NowNs();
  sash::batch::BatchResult batch = sash::batch::BatchDriver(options).RunSources(sources);
  const int64_t run_end = NowNs();
  totals.pattern_hits = static_cast<double>(sash::regex::PatternCache::Hits() - hits0);
  totals.pattern_misses = static_cast<double>(sash::regex::PatternCache::Misses() - misses0);
  double worker_micros[std::size(kPhaseSpans)] = {};
  for (size_t i = 0; i < batch.files.size() && i < s.scripts.size(); ++i) {
    const sash::batch::FileResult& f = batch.files[i];
    std::optional<Json> report = ParseJson(f.report_json);
    ++result->attempted;
    std::string wrong = !f.ok || f.cached ? "not a cold, successful analysis"
                        : !report.has_value() ? "report is not JSON"
                                              : CheckReport(s.scripts[i], *report);
    if (!wrong.empty()) {
      result->FailOp("batch_cold traced " + s.scripts[i].name + ": " + wrong);
      continue;
    }
    totals.file_us.push_back(static_cast<double>(f.micros));
    totals.file_us_sum += static_cast<double>(f.micros);
    totals.degraded += f.status == sash::batch::FileStatus::kDegraded ? 1 : 0;
    const Json* phases = report->Get("phases");
    for (const Json& phase : phases != nullptr ? phases->items : std::vector<Json>{}) {
      const Json* name = phase.Get("name");
      const Json* micros = phase.Get("micros");
      const PhaseSpan* span = name != nullptr ? FindPhaseSpan(name->text) : nullptr;
      if (span != nullptr && micros != nullptr) {
        worker_micros[span - kPhaseSpans] += micros->number / Jobs(o);
      }
    }
  }
  if (log != nullptr) {
    const int run = log->AddChild("batch.run", run_start, run_end, -1);
    AddPhaseChildren(log, run, run_start, run_end, worker_micros, true);
  }

  sash::batch::Cache cache(cache_b);
  const sash::core::AnalyzerOptions analyzer_options;
  for (const Script& script : s.scripts) {
    sash::core::AnalysisReport report;
    {
      Scope span(log, "core.analyze");
      const int64_t analyze_start = NowNs();
      report = sash::core::Analyzer(analyzer_options).AnalyzeSource(script.text);
      if (log != nullptr) {
        double micros[std::size(kPhaseSpans)] = {};
        for (const sash::core::PhaseTiming& phase : report.phase_timings()) {
          if (const PhaseSpan* p = FindPhaseSpan(phase.name)) {
            micros[p - kPhaseSpans] += static_cast<double>(phase.micros);
          }
        }
        AddPhaseChildren(log, span.index(), analyze_start, NowNs(), micros, false);
      }
    }
    const sash::symex::EngineStats& st = report.engine_stats();
    totals.commands += st.commands_executed;
    totals.forks += st.forks;
    totals.merged += st.states_merged;
    totals.dropped += st.states_dropped;
    totals.pipelines += report.pipelines_checked();
    sash::batch::AnalysisEntry entry;
    {
      Scope span(log, "core.render_json");
      entry.report_json = report.ToJson(nullptr);
    }
    {
      Scope span(log, "core.render_text");
      entry.report_text = report.ToString();
    }
    entry.warnings_or_worse = static_cast<int64_t>(report.CountSeverity(sash::Severity::kWarning));
    entry.degraded_reason = report.degraded_reason();
    std::string key;
    {
      Scope span(log, "batch.key");
      key = sash::batch::AnalysisKey(script.text, analyzer_options);
    }
    std::string payload;
    {
      Scope span(log, "batch.cache_encode");
      payload = sash::batch::EncodeAnalysisEntry(key, entry);
    }
    Scope span(log, "batch.cache_put");
    if (!cache.Put("analysis", key, payload)) {
      result->Wrong("batch_cold traced: Cache::Put failed for " + script.name);
    }
  }
  root.End();
  totals.wall_s = Seconds(NowNs() - start);
  RemoveTree(cache_a);
  RemoveTree(cache_b);
  return totals;
}

void Trace(const Options& o, const BatchSetup& s, Result* result) {
  TracedPass(o, s, nullptr, result);  // Warm-up, so neither timed pass pays first-run costs.
  const PassTotals untraced = TracedPass(o, s, nullptr, result);
  SpanLog log(0);
  const PassTotals t = TracedPass(o, s, &log, result);
  const std::vector<const SpanLog*> logs = {&log};
  const double files = static_cast<double>(s.scripts.size());
  auto mean = [&](const char* name) { return Sum(SpanMicros(logs, name)) / files; };

  const double run_ms = Sum(SpanMicros(logs, "batch.run")) / 1e3;
  double phases_us = 0;
  for (const PhaseSpan& p : kPhaseSpans) {
    phases_us += Sum(SpanMicros(logs, p.serial));
  }
  result->Set("batch.run_ms", run_ms, "ms");
  result->Set("batch.file_us_p50", Median(t.file_us), "us");
  result->Set("batch.file_us_max", Percentile(t.file_us, 1.0), "us");
  result->Set("batch.worker_busy_ratio", t.file_us_sum / (run_ms * 1e3 * Jobs(o)), "ratio");
  result->Set("batch.degraded_ratio", t.degraded / files, "ratio");
  result->Set("batch.key_us", mean("batch.key"), "us");
  result->Set("batch.key_mb_s", s.bytes / Sum(SpanMicros(logs, "batch.key")), "MB/s");
  result->Set("batch.cache_encode_us", mean("batch.cache_encode"), "us");
  result->Set("batch.cache_put_us", mean("batch.cache_put"), "us");

  const double symex_us = mean("symex.run");
  result->Set("syntax.parse_us", mean("syntax.parse"), "us");
  result->Set("syntax.parse_mb_s", s.bytes / Sum(SpanMicros(logs, "syntax.parse")), "MB/s");
  result->Set("annot.inline_us", mean("annot.inline"), "us");
  result->Set("stream.check_us", mean("stream.check"), "us");
  result->Set("stream.pipelines", t.pipelines / files, "count");
  const double lookups = t.pattern_hits + t.pattern_misses;
  result->Set("regex.pattern_cache_hit_ratio", lookups > 0 ? t.pattern_hits / lookups : 0,
              "ratio");
  result->Set("symex.run_us", symex_us, "us");
  result->Set("symex.commands_executed", t.commands / files, "count");
  result->Set("symex.forks", t.forks / files, "count");
  result->Set("symex.states_merged", t.merged / files, "count");
  result->Set("symex.states_dropped", t.dropped / files, "count");
  result->Set("symex.us_per_command", symex_us * files / t.commands, "us");
  result->Set("core.analyze_us", mean("core.analyze"), "us");
  result->Set("core.self_us", mean("core.analyze") - phases_us / files, "us");
  result->Set("core.render_json_us", mean("core.render_json"), "us");
  result->Set("core.render_text_us", mean("core.render_text"), "us");
  std::fprintf(stderr,
               "batch_cold traced: %zu files; pattern cache %.0f hits / %.0f lookups; "
               "%.0f degraded\n",
               s.scripts.size(), t.pattern_hits, lookups, t.degraded);
  FinishTrace(o, logs, untraced.wall_s, t.wall_s, result);
}

}  // namespace

Result RunBatchCold(const Options& options) {
  Result result;
  BatchSetup setup;
  if (!TimedSetup(&result, 5, [&](int rep) { return SetUp(options, rep, &setup, &result); })) {
    return result;
  }
  if (options.trace) {
    Trace(options, setup, &result);
  } else {
    Measure(options, setup, &result);
  }
  return result;
}

}  // namespace perfbench
