// Experiment T9 (supporting §3's "computational tractability" claim for
// regular-language constraints): costs of the language algebra over the
// descriptive-type library — intersection, complement, inclusion,
// minimization — with state counts.
#include <algorithm>
#include <chrono>
#include <string_view>

#include "bench_util.h"
#include "rtypes/types.h"

namespace {

std::vector<std::pair<std::string, sash::regex::Regex>> LibraryTypes() {
  std::vector<std::pair<std::string, sash::regex::Regex>> out;
  sash::rtypes::TypeLibrary lib = sash::rtypes::TypeLibrary::Default();
  for (const std::string& name : lib.Names()) {
    if (name == "none" || name == "empty") {
      continue;
    }
    out.emplace_back(name, *lib.Find(name));
  }
  return out;
}

// The monitor's and grep's line languages, in monitor_stream's line shapes:
// whole "id,name,value,tag" CSV lines, or the single field a `cut` passes on.
struct LineCase {
  const char* pattern;
  int field;  // 0: whole CSV lines; else the 1-based field.
};
constexpr LineCase kLineCases[] = {
    {".*", 0}, {"[^,\\n]*", 2}, {".*alpha.*", 0}, {".*,ok", 0}, {"-?\\d+", 3}};

std::vector<std::string> MonitorLines(int field) {
  static const char* const kNames[] = {"alpha", "beta", "gamma", "delta"};
  static const char* const kTags[] = {"ok", "ok", "warn", "err"};
  std::vector<std::string> lines;
  uint32_t x = 29;
  auto next = [&x](uint32_t n) {
    x = x * 1103515245u + 12345u;
    return (x >> 8) % n;
  };
  for (int i = 0; i < 1000; ++i) {
    const std::string fields[] = {std::to_string(1 + next(99999)),
                                  kNames[next(4)] + std::to_string(next(100)),
                                  std::to_string(next(1000000)), kTags[next(4)]};
    lines.push_back(field == 0 ? fields[0] + "," + fields[1] + "," + fields[2] + "," + fields[3]
                               : fields[field - 1]);
  }
  return lines;
}

// Nanoseconds per byte of the fastest of 21 passes over `lines`, with the
// accelerated line check or with Accepts, which steps every byte.
double LineCheckNsPerByte(const sash::regex::Dfa& dfa, const std::vector<std::string>& lines,
                          bool accelerated) {
  size_t bytes = 0;
  for (const std::string& line : lines) {
    bytes += line.size();
  }
  double best = 0;
  for (int rep = 0; rep < 21; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (const std::string& line : lines) {
      benchmark::DoNotOptimize(accelerated ? dfa.AcceptsLine(line) : dfa.Accepts(line));
    }
    const double ns = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - t0).count();
    best = rep == 0 ? ns : std::min(best, ns);
  }
  return best / static_cast<double>(bytes);
}

void PrintResult() {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"type", "pattern", "min-DFA states"});
  for (const auto& [name, lang] : LibraryTypes()) {
    std::string pattern = lang.pattern();
    if (pattern.size() > 44) {
      pattern = pattern.substr(0, 41) + "...";
    }
    rows.push_back({name, pattern, std::to_string(lang.DfaStates())});
  }
  sash::bench::PrintTable("T9a: descriptive-type library, minimal DFA sizes", rows);

  // Pairwise intersection emptiness — the dead-stream primitive.
  std::vector<std::vector<std::string>> pair_rows;
  pair_rows.push_back({"A", "B", "A∩B empty?", "A⊆B?", "product states"});
  const char* pairs[][2] = {{"lsbline", "hexline"}, {"hex0x", "hexline"},
                            {"number", "word"},     {"abspath", "path"},
                            {"url", "word"}};
  sash::rtypes::TypeLibrary lib = sash::rtypes::TypeLibrary::Default();
  for (const auto& [a, b] : pairs) {
    const sash::regex::Regex* la = lib.Find(a);
    const sash::regex::Regex* lb = lib.Find(b);
    sash::regex::Regex inter = la->Intersect(*lb);
    pair_rows.push_back({a, b, inter.IsEmptyLanguage() ? "yes" : "no",
                         la->IncludedIn(*lb) ? "yes" : "no",
                         std::to_string(inter.DfaStates())});
  }
  sash::bench::PrintTable("T9b: pairwise language algebra over the library", pair_rows);

  // The line check per byte. The `.*` ratio is gated in bench/baseline.json:
  // its start state decides every line, and a check that steps every byte
  // instead reads about 100.
  std::vector<std::vector<std::string>> line_rows;
  line_rows.push_back({"language", "AcceptsLine ns/byte", "Accepts ns/byte"});
  for (const LineCase& c : kLineCases) {
    const sash::regex::Regex lang = *sash::regex::Regex::FromPattern(c.pattern);
    const std::vector<std::string> lines = MonitorLines(c.field);
    const double accel = LineCheckNsPerByte(lang.dfa(), lines, true);
    const double step = LineCheckNsPerByte(lang.dfa(), lines, false);
    char cells[2][16];
    std::snprintf(cells[0], sizeof(cells[0]), "%.2f", accel);
    std::snprintf(cells[1], sizeof(cells[1]), "%.2f", step);
    line_rows.push_back({c.pattern, cells[0], cells[1]});
    if (std::string_view(c.pattern) == ".*") {
      sash::bench::Metric("t9.line_check_x100_dotstar",
                          static_cast<int64_t>(accel / step * 100.0));
    }
  }
  sash::bench::PrintTable("T9c: line check per byte, monitor_stream line shapes", line_rows);
}

// The automaton algebra is timed on Dfa directly: Regex memoizes compiled
// patterns, derived languages and inclusion verdicts in PatternCache, so a
// Regex-level loop would time cache hits after its first iteration.
void BM_Compile(benchmark::State& state) {
  sash::regex::Regex lsb =
      *sash::regex::Regex::FromPattern("(Distributor ID|Description|Release|Codename):\\t.*");
  for (auto _ : state) {
    sash::regex::Dfa dfa = sash::regex::Dfa::FromAst(lsb.ast()).Minimize();
    benchmark::DoNotOptimize(dfa.NumStates());
  }
}
BENCHMARK(BM_Compile)->Unit(benchmark::kMicrosecond);

void BM_Intersection(benchmark::State& state) {
  sash::regex::Regex lsb =
      *sash::regex::Regex::FromPattern("(Distributor ID|Description|Release|Codename):\\t.*");
  sash::regex::Regex filter = *sash::regex::Regex::FromPattern("desc.*");
  for (auto _ : state) {
    sash::regex::Dfa inter = lsb.dfa().Intersect(filter.dfa()).Minimize();
    benchmark::DoNotOptimize(inter.IsEmptyLanguage());
  }
}
BENCHMARK(BM_Intersection)->Unit(benchmark::kMicrosecond);

void BM_Inclusion(benchmark::State& state) {
  sash::regex::Regex concrete = *sash::regex::Regex::FromPattern("0x[0-9a-f]+");
  sash::regex::Regex bound = *sash::regex::Regex::FromPattern("0x[0-9a-f]+.*");
  for (auto _ : state) {
    benchmark::DoNotOptimize(concrete.dfa().IncludedIn(bound.dfa()));
  }
}
BENCHMARK(BM_Inclusion)->Unit(benchmark::kMicrosecond);

void BM_Complement(benchmark::State& state) {
  sash::regex::Regex url = *sash::rtypes::TypeLibrary::Default().Find("url");
  for (auto _ : state) {
    sash::regex::Dfa comp = url.dfa().Complement().Minimize();
    benchmark::DoNotOptimize(comp.IsEmptyLanguage());
  }
}
BENCHMARK(BM_Complement)->Unit(benchmark::kMicrosecond);

// The memoized path the type checker takes: after the first iteration each
// call is one lock-free PatternCache probe plus a Regex copy.
void BM_MemoizedIntersection(benchmark::State& state) {
  sash::regex::Regex lsb =
      *sash::regex::Regex::FromPattern("(Distributor ID|Description|Release|Codename):\\t.*");
  sash::regex::Regex filter = *sash::regex::Regex::FromPattern("desc.*");
  for (auto _ : state) {
    sash::regex::Regex inter = lsb.Intersect(filter);
    benchmark::DoNotOptimize(inter.IsEmptyLanguage());
  }
}
BENCHMARK(BM_MemoizedIntersection)->Unit(benchmark::kMicrosecond);

void BM_Membership(benchmark::State& state) {
  sash::regex::Regex longlist = *sash::rtypes::TypeLibrary::Default().Find("longlist");
  const std::string line = "-rw-r--r-- 1 root root 4096 Jul  1 10:00 notes.txt";
  for (auto _ : state) {
    benchmark::DoNotOptimize(longlist.Matches(line));
  }
}
BENCHMARK(BM_Membership);

// Per-byte cost of the line check on kLineCases: BM_AcceptsLine is the
// accelerated scan the monitor and grep run; BM_Accepts steps every byte, as
// both did before.
template <bool kAccelerated>
void LineCheck(benchmark::State& state) {
  const LineCase& c = kLineCases[state.range(0)];
  const sash::regex::Regex lang = *sash::regex::Regex::FromPattern(c.pattern);
  const sash::regex::Dfa& dfa = lang.dfa();
  const std::vector<std::string> lines = MonitorLines(c.field);
  size_t bytes = 0;
  for (const std::string& line : lines) {
    bytes += line.size();
  }
  for (auto _ : state) {
    for (const std::string& line : lines) {
      benchmark::DoNotOptimize(kAccelerated ? dfa.AcceptsLine(line) : dfa.Accepts(line));
    }
  }
  // Shown as seconds per byte (e.g. "1.9ns").
  state.counters["per_byte"] = benchmark::Counter(
      static_cast<double>(bytes),
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
  state.SetLabel(c.pattern);
}

void BM_AcceptsLine(benchmark::State& state) { LineCheck<true>(state); }
BENCHMARK(BM_AcceptsLine)->DenseRange(0, std::size(kLineCases) - 1)->Unit(benchmark::kMicrosecond);

void BM_Accepts(benchmark::State& state) { LineCheck<false>(state); }
BENCHMARK(BM_Accepts)->DenseRange(0, std::size(kLineCases) - 1)->Unit(benchmark::kMicrosecond);

}  // namespace

SASH_BENCH_MAIN(PrintResult)
