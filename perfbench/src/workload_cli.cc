// cli_warm: the paper's JIT invocation. A closed loop runs one
// `sash analyze --format=json --cache-dir D <file>` at a time, round-robin
// over the corpus, with D warmed during set-up. Every run is a cache hit, so
// process start, CLI set-up, key hashing and cache read/verify/decode do all
// the work and the analysis layers do none.
#include <cstdio>

#include "batch/cache.h"
#include "bench.h"
#include "corpus.h"

namespace perfbench {

namespace {

constexpr int kScripts = 200;

ScriptMix CliMix() {
  ScriptMix mix;
  mix.min_statements = 4;
  mix.max_statements = 40;
  mix.pattern_pool = 32;
  mix.heavy_per_mille = 20;  // 4 of 200: their entries replay like any other.
  return mix;
}

struct CliCorpus {
  std::vector<Script> scripts;
  std::vector<std::string> paths;
  std::vector<std::string> cold;   // Cold stdout, the reference for every warm run.
  std::vector<int> exit_codes;
  std::string cache_dir;
};

std::vector<std::string> AnalyzeArgv(const Options& o, const CliCorpus& c, size_t i) {
  return {o.sash, "analyze", "--format=json", "--cache-dir", c.cache_dir, c.paths[i]};
}

// Generates the corpus into a fresh directory and runs every file once,
// cold, which fills the cache and records the reference output.
bool SetUp(const Options& o, int rep, CliCorpus* c, Result* result) {
  const std::string dir = o.work + "/cli" + std::to_string(rep);
  RemoveTree(dir);
  *c = CliCorpus{};
  c->cache_dir = dir + "/cache";
  if (!MakeDirs(dir + "/scripts")) {
    result->Wrong("cannot create " + dir);
    return false;
  }
  c->scripts = GenerateScripts(o.seed, kScripts, CliMix());
  for (const Script& s : c->scripts) {
    c->paths.push_back(dir + "/scripts/" + s.name);
    if (!WriteFile(c->paths.back(), s.text)) {
      result->Wrong("cannot write " + c->paths.back());
      return false;
    }
  }
  for (size_t i = 0; i < c->scripts.size(); ++i) {
    ProcResult r = RunProcess(AnalyzeArgv(o, *c, i), true);
    std::optional<Json> report = ParseJson(r.out);
    std::string wrong = !r.spawned                         ? "cannot spawn " + o.sash
                        : r.exit_code != 0 && r.exit_code != 1 ? "cold run exited " +
                                                                 std::to_string(r.exit_code)
                        : !report.has_value()              ? "cold output is not JSON"
                                                           : CheckReport(c->scripts[i], *report);
    if (!wrong.empty()) {
      result->Wrong("cli_warm set-up, " + c->scripts[i].name + ": " + wrong);
      return false;
    }
    c->cold.push_back(std::move(r.out));
    c->exit_codes.push_back(r.exit_code);
  }
  return true;
}

// One warm invocation, checked byte-for-byte against the cold reference.
ProcResult Invoke(const Options& o, const CliCorpus& c, size_t i, Result* result) {
  ProcResult r = RunProcess(AnalyzeArgv(o, c, i), true);
  ++result->attempted;
  if (r.exit_code != c.exit_codes[i] || r.out != c.cold[i]) {
    result->FailOp("cli_warm " + c.scripts[i].name + ": warm output differs from the cold report");
  }
  return r;
}

void Measure(const Options& o, const CliCorpus& c, Result* result) {
  WindowLog log;
  double peak_rss = 0;
  const int64_t deadline = NowNs() + static_cast<int64_t>(o.seconds) * 1000000000;
  for (size_t op = 0; NowNs() < deadline; ++op) {
    ProcResult r = Invoke(o, c, op % c.scripts.size(), result);
    log.Add(static_cast<double>(r.wall_ns) / 1e6, 1, r.cpu_ms);
    if (log.Due()) {
      log.Close();
    }
    peak_rss = std::max(peak_rss, r.maxrss_mb);
  }
  log.Close();
  SetEndToEnd(result, log.totals());
  result->Set("peak_rss_mb", peak_rss, "MB");
}

// The traced pass: each warm invocation, then the same file's key → get →
// decode replayed in this process, and a `sash version` every fourth file.
// With `log` null the identical work runs without spans. Returns the bytes
// of the cache entries read.
double TracedPass(const Options& o, const CliCorpus& c, size_t ops, SpanLog* log,
                  Result* result) {
  double entry_bytes = 0;
  sash::batch::Cache cache(c.cache_dir);
  const sash::core::AnalyzerOptions analyzer;
  Scope root(log, "cli_warm");
  for (size_t op = 0; op < ops; ++op) {
    const size_t i = op % c.scripts.size();
    {
      Scope span(log, "tools.cli_analyze");
      Invoke(o, c, i, result);
    }
    std::string key;
    std::optional<std::string> payload;
    std::optional<sash::batch::AnalysisEntry> entry;
    {
      Scope span(log, "batch.key");
      key = sash::batch::AnalysisKey(c.scripts[i].text, analyzer);
    }
    {
      Scope span(log, "batch.cache_get");
      payload = cache.Get("analysis", key);
    }
    if (payload.has_value()) {
      entry_bytes += static_cast<double>(payload->size());
      Scope span(log, "batch.cache_decode");
      entry = sash::batch::DecodeAnalysisEntry(*payload);
    }
    if (!entry.has_value() || entry->report_json + "\n" != c.cold[i]) {
      result->Wrong("cli_warm replay of " + c.scripts[i].name +
                    ": the in-process key/get/decode does not reproduce the CLI hit");
    }
    if (op % 4 == 0) {
      Scope span(log, "tools.version");
      ProcResult r = RunProcess({o.sash, "version"}, true);
      if (r.exit_code != 0) {
        result->Wrong("sash version exited " + std::to_string(r.exit_code));
      }
    }
  }
  return entry_bytes;
}

void Trace(const Options& o, const CliCorpus& c, Result* result) {
  // Untraced first, for half the run, to fix the operation count; then the
  // same operations traced.
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(o.seconds) * 500000000;
  size_t ops = 0;
  while (NowNs() < deadline) {
    TracedPass(o, c, c.scripts.size(), nullptr, result);
    ops += c.scripts.size();
  }
  const double untraced_s = Seconds(NowNs() - start);

  SpanLog log(0);
  const int64_t traced_start = NowNs();
  const double entry_bytes = TracedPass(o, c, ops, &log, result);
  const double traced_s = Seconds(NowNs() - traced_start);

  const std::vector<const SpanLog*> logs = {&log};
  const std::vector<double> cli_us = SpanMicros(logs, "tools.cli_analyze");
  const std::vector<double> key_us = SpanMicros(logs, "batch.key");
  const std::vector<double> get_us = SpanMicros(logs, "batch.cache_get");
  const std::vector<double> decode_us = SpanMicros(logs, "batch.cache_decode");
  std::vector<double> lookup_us;
  for (size_t i = 0; i < key_us.size() && i < get_us.size() && i < decode_us.size(); ++i) {
    lookup_us.push_back(key_us[i] + get_us[i] + decode_us[i]);
  }
  double bytes = 0;
  for (size_t op = 0; op < ops; ++op) {
    bytes += static_cast<double>(c.scripts[op % c.scripts.size()].text.size());
  }
  result->Set("tools.version_ms", Median(SpanMicros(logs, "tools.version")) / 1e3, "ms");
  result->Set("tools.cli_overhead_ms", (Median(cli_us) - Median(lookup_us)) / 1e3, "ms");
  result->Set("batch.key_us", Median(key_us), "us");
  result->Set("batch.key_mb_s", bytes / Sum(key_us), "MB/s");
  result->Set("batch.cache_get_us", Median(get_us), "us");
  result->Set("batch.cache_decode_us", Median(decode_us), "us");
  result->Set("batch.entry_bytes", entry_bytes / static_cast<double>(ops), "bytes");
  std::fprintf(stderr, "cli_warm traced: %zu invocations, all expected cache hits\n", ops);
  FinishTrace(o, logs, untraced_s, traced_s, result);
}

}  // namespace

Result RunCliWarm(const Options& options) {
  Result result;
  CliCorpus corpus;
  if (!TimedSetup(&result, 3, [&](int rep) { return SetUp(options, rep, &corpus, &result); })) {
    return result;
  }
  if (options.trace) {
    Trace(options, corpus, &result);
  } else {
    Measure(options, corpus, &result);
  }
  return result;
}

}  // namespace perfbench
