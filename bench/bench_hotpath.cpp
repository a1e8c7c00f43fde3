// Hot-path benchmark: cold single-script analysis over the checked-in
// example corpus (examples/scripts/, override with SASH_SCRIPTS_DIR; a
// synthetic corpus stands in when the directory is absent so CI from any cwd
// still runs), with digest-based state merging and the memoized
// regex/glob pattern and Describe() caches that the analyzer always uses.
//
// Acceptance: findings are byte-identical to a SASH_PARANOID_MERGE=1 run,
// which cross-checks every digest merge against the rendered state
// signature, and that run counts zero digest collisions. The absolute
// ms/script is gated by bench/baseline.json.
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench_util.h"
#include "core/analyzer.h"
#include "regex/regex.h"
#include "util/intern.h"

namespace {

namespace fs = std::filesystem;

struct Script {
  std::string name;
  std::string source;
};

std::string SyntheticScript(int i) {
  std::string s = "# synthetic corpus " + std::to_string(i) + "\n";
  s += "PREFIX=/srv/app" + std::to_string(i) + "\n";
  s += "for f in a b c d; do\n  echo \"$PREFIX/$f\"\ndone\n";
  s += "if test -d \"$PREFIX\"; then\n  rm -r \"$PREFIX/stale\"\nfi\n";
  s += "cat conf | grep key" + std::to_string(i) + " | sort | uniq -c\n";
  s += "mkdir -p \"$PREFIX/logs\"\ntouch \"$PREFIX/logs/run\"\n";
  return s;
}

std::vector<Script> LoadCorpus() {
  const char* env = std::getenv("SASH_SCRIPTS_DIR");
  fs::path dir = env != nullptr ? env : "examples/scripts";
  std::error_code ec;
  if (env == nullptr && !fs::is_directory(dir, ec)) {
    dir = "../examples/scripts";  // Run from the build root.
  }
  std::vector<Script> corpus;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().extension() != ".sh") {
      continue;
    }
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    corpus.push_back({entry.path().filename().string(), buf.str()});
  }
  std::sort(corpus.begin(), corpus.end(),
            [](const Script& a, const Script& b) { return a.name < b.name; });
  if (corpus.empty()) {
    for (int i = 0; i < 8; ++i) {
      corpus.push_back({"synthetic_" + std::to_string(i) + ".sh", SyntheticScript(i)});
    }
  }
  return corpus;
}

struct CorpusResult {
  int64_t total_ns = 0;
  int64_t peak_states = 0;  // Max over scripts.
  int64_t digest_collisions = 0;
  size_t findings = 0;
  std::string rendered;  // Concatenated findings text, for identity checks.
};

CorpusResult AnalyzeCorpus(const std::vector<Script>& corpus) {
  CorpusResult out;
  for (const Script& script : corpus) {
    // Fresh analyzer per script: cold single-script analysis is the metric.
    sash::core::Analyzer analyzer;
    auto start = std::chrono::steady_clock::now();
    sash::core::AnalysisReport report = analyzer.AnalyzeSource(script.source);
    auto end = std::chrono::steady_clock::now();
    out.total_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count();
    out.peak_states = std::max(out.peak_states,
                               static_cast<int64_t>(report.engine_stats().states_peak));
    out.digest_collisions += report.engine_stats().digest_collisions;
    out.findings += report.findings().size();
    out.rendered += "== " + script.name + " ==\n" + report.ToString();
  }
  return out;
}

// One corpus pass with paranoid merging on (the engine reads the variable
// per analysis), restoring the caller's setting afterwards.
CorpusResult AnalyzeCorpusParanoid(const std::vector<Script>& corpus) {
  const char* prior = std::getenv("SASH_PARANOID_MERGE");
  const std::string saved = prior != nullptr ? prior : "";
  setenv("SASH_PARANOID_MERGE", "1", /*overwrite=*/1);
  CorpusResult out = AnalyzeCorpus(corpus);
  if (prior != nullptr) {
    setenv("SASH_PARANOID_MERGE", saved.c_str(), /*overwrite=*/1);
  } else {
    unsetenv("SASH_PARANOID_MERGE");
  }
  return out;
}

std::string FormatMsPerScript(int64_t total_ns, size_t scripts) {
  double ms = static_cast<double>(total_ns) / 1e6 / static_cast<double>(scripts);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", ms);
  return buf;
}

void PrintResult() {
  std::vector<Script> corpus = LoadCorpus();

  // Warm-up pass so lazily-built tables (spec index, typing rules, builtin
  // sets) are constructed before the timed runs.
  AnalyzeCorpus(corpus);

  CorpusResult best;
  best.total_ns = INT64_MAX;
  for (int rep = 0; rep < 5; ++rep) {
    // Cold DFA cache each rep: the claim is cold single-script analysis,
    // where the cache still wins because patterns repeat within a script
    // and across the spec library.
    sash::regex::PatternCache::Clear();
    CorpusResult r = AnalyzeCorpus(corpus);
    if (r.total_ns < best.total_ns) {
      best = std::move(r);
    }
  }
  CorpusResult paranoid = AnalyzeCorpusParanoid(corpus);
  const bool identical = best.rendered == paranoid.rendered && paranoid.digest_collisions == 0;
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"configuration", "ms/script", "peak states", "findings",
                  "digest collisions", "identical"});
  rows.push_back({"hot path", FormatMsPerScript(best.total_ns, corpus.size()),
                  std::to_string(best.peak_states), std::to_string(best.findings), "-", "-"});
  rows.push_back({"SASH_PARANOID_MERGE=1", FormatMsPerScript(paranoid.total_ns, corpus.size()),
                  std::to_string(paranoid.peak_states), std::to_string(paranoid.findings),
                  std::to_string(paranoid.digest_collisions), identical ? "yes" : "NO"});
  sash::bench::Metric("hotpath.ns_per_script.full",
                      best.total_ns / static_cast<int64_t>(corpus.size()));
  sash::bench::Metric("hotpath.peak_states.full", best.peak_states);
  sash::bench::Metric("hotpath.identical.full", identical ? 1 : 0);
  sash::bench::PrintTable(
      "H1: cold single-script analysis over " + std::to_string(corpus.size()) +
          " scripts (expected: identical findings, 0 digest collisions)",
      rows);

  // Tab7-style sweep: digest merging must keep state explosion in check.
  std::vector<std::vector<std::string>> sweep;
  sweep.push_back({"branches b", "peak states", "merged"});
  for (int b : {2, 4, 6, 8, 10}) {
    std::string src;
    for (int i = 0; i < b; ++i) {
      src += "if grep -q key /etc/conf" + std::to_string(i) + "; then f" +
             std::to_string(i) + "=1; fi\n";
    }
    src += "echo done\n";
    sash::syntax::ParseOutput parsed = sash::syntax::Parse(src);
    sash::DiagnosticSink sink;
    sash::symex::EngineOptions options;
    options.report_unset_vars = false;
    sash::symex::Engine engine(options, &sink);
    engine.Run(parsed.program);
    const sash::symex::EngineStats& stats = engine.stats();
    sweep.push_back({std::to_string(b), std::to_string(stats.states_peak),
                     std::to_string(stats.states_merged)});
    sash::bench::Metric("hotpath.sweep.peak_states.b" + std::to_string(b), stats.states_peak);
  }
  sash::bench::PrintTable("H2: state-merging sweep", sweep);

  // Process-wide hot-path counters, straight into the report.
  sash::bench::Metric("hotpath.intern.size",
                      static_cast<int64_t>(sash::util::Interner::size()));
  sash::bench::Metric("hotpath.dfa_cache.hits",
                      static_cast<int64_t>(sash::regex::PatternCache::Hits()));
  sash::bench::Metric("hotpath.dfa_cache.misses",
                      static_cast<int64_t>(sash::regex::PatternCache::Misses()));
}

void BM_AnalyzeCorpus(benchmark::State& state) {
  static const std::vector<Script>* corpus = new std::vector<Script>(LoadCorpus());
  for (auto _ : state) {
    benchmark::DoNotOptimize(AnalyzeCorpus(*corpus).findings);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(corpus->size()));
}
BENCHMARK(BM_AnalyzeCorpus)->Unit(benchmark::kMillisecond);

void BM_PatternCompile(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(sash::regex::Regex::FromPattern("[-+]?\\d+(\\.\\d+)?"));
  }
  state.SetLabel("cached");
}
BENCHMARK(BM_PatternCompile);

}  // namespace

SASH_BENCH_MAIN(PrintResult)
