// Experiment T9 (supporting §3's "computational tractability" claim for
// regular-language constraints): costs of the language algebra over the
// descriptive-type library — intersection, complement, inclusion,
// minimization — with state counts.
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

}  // namespace

SASH_BENCH_MAIN(PrintResult)
