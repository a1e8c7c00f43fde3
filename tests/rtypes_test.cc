#include <gtest/gtest.h>

#include <random>
#include <thread>

#include "regex/nfa.h"
#include "rtypes/types.h"
#include "stream/pipeline.h"
#include "syntax/parser.h"

namespace sash::rtypes {
namespace {

regex::Regex Rx(const char* p) {
  std::optional<regex::Regex> r = regex::Regex::FromPattern(p);
  EXPECT_TRUE(r.has_value()) << p;
  return r.value_or(regex::Regex::Nothing());
}

TEST(TypeExpr, SubstituteAndPrint) {
  TypeExpr prefixed = TypeExpr::Concat({TypeExpr::Prefix("0x"), TypeExpr::Var()});
  EXPECT_TRUE(prefixed.UsesVar());
  regex::Regex out = prefixed.Substitute(Rx("[0-9a-f]+"));
  EXPECT_TRUE(out.Matches("0xdeadbeef"));
  EXPECT_FALSE(out.Matches("deadbeef"));
  EXPECT_EQ(prefixed.ToString(), "0xα");
  TypeExpr fixed = TypeExpr::Lang(Rx("desc.*"));
  EXPECT_FALSE(fixed.UsesVar());
}

// The paper's §4 polymorphic sed type: sed 's/^/0x/' :: ∀α. α → 0xα.
TEST(CommandType, PolymorphicSedFromPaper) {
  CommandType sed;
  sed.polymorphic = true;
  sed.input = TypeExpr::Var();
  sed.output = TypeExpr::Concat({TypeExpr::Prefix("0x"), TypeExpr::Var()});
  EXPECT_EQ(sed.ToString(), "∀α. α → 0xα");

  ApplyResult r = Apply(sed, Rx("[0-9a-f]+"));
  ASSERT_TRUE(r.ok);
  // "(1) instantiating sed's type variable α with its concrete input
  //  [0-9a-f]+ (from grep) to obtain the concrete output type 0x[0-9a-f]+"
  EXPECT_TRUE(r.output->EquivalentTo(Rx("0x[0-9a-f]+")));
}

// "(2) confirming that this concrete output type is compatible with sort -g,
//  i.e., that 0x[0-9a-f]+ ⊆ 0x[0-9a-f]+.*"
TEST(CommandType, SortBoundFromPaper) {
  CommandType sort_g;
  sort_g.polymorphic = true;
  sort_g.bound = Rx("0x[0-9a-f]+.*");
  sort_g.input = TypeExpr::Var();
  sort_g.output = TypeExpr::Var();

  ApplyResult good = Apply(sort_g, Rx("0x[0-9a-f]+"));
  EXPECT_TRUE(good.ok);
  EXPECT_TRUE(good.output->EquivalentTo(Rx("0x[0-9a-f]+")));

  // The simple (non-polymorphic) sed type 0x.* does NOT satisfy the bound —
  // exactly the paper's motivation for polymorphism.
  ApplyResult bad = Apply(sort_g, Rx("0x.*"));
  EXPECT_FALSE(bad.ok);
  EXPECT_NE(bad.error.find("⊄"), std::string::npos);
}

TEST(CommandType, MonomorphicSubsumption) {
  CommandType t;
  t.input = TypeExpr::Lang(Rx("[a-z]+"));
  t.output = TypeExpr::Lang(Rx("\\d+"));
  // A subtype of the declared input is accepted.
  EXPECT_TRUE(Apply(t, Rx("[a-c]+")).ok);
  // A non-subtype is rejected.
  EXPECT_FALSE(Apply(t, Rx("[a-z0-9]+")).ok);
}

TEST(CommandType, IntersectFilterComputesGrepOutput) {
  CommandType grep;
  grep.intersect_filter = Rx("desc.*");
  ApplyResult r = Apply(grep, Rx("(Distributor ID|Description|Release|Codename):\\t.*"));
  ASSERT_TRUE(r.ok);
  // Fig. 5: the intersection is empty — the dead-stream signal.
  EXPECT_TRUE(r.output_empty);

  CommandType grep_fixed;
  grep_fixed.intersect_filter = Rx("Desc.*");
  ApplyResult r2 = Apply(grep_fixed, Rx("(Distributor ID|Description|Release|Codename):\\t.*"));
  ASSERT_TRUE(r2.ok);
  EXPECT_FALSE(r2.output_empty);
  EXPECT_TRUE(r2.output->Matches("Description:\tDebian"));
}

TEST(CommandType, EmptyInputStaysEmpty) {
  CommandType ident;
  ident.polymorphic = true;
  ident.input = TypeExpr::Var();
  ident.output = TypeExpr::Var();
  ApplyResult r = Apply(ident, regex::Regex::Nothing());
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.output_empty);
}

TEST(TypeLibrary, DefaultsResolve) {
  TypeLibrary lib = TypeLibrary::Default();
  EXPECT_NE(lib.Find("any"), nullptr);
  EXPECT_NE(lib.Find("url"), nullptr);
  EXPECT_NE(lib.Find("longlist"), nullptr);
  EXPECT_NE(lib.Find("hexline"), nullptr);
  EXPECT_EQ(lib.Find("no-such-type"), nullptr);
  EXPECT_TRUE(lib.Find("url")->Matches("https://example.com/install.sh"));
  EXPECT_FALSE(lib.Find("url")->Matches("not a url"));
  EXPECT_TRUE(lib.Find("number")->Matches("-42"));
  EXPECT_TRUE(lib.Find("tsvline")->Matches("a\tb\tc"));
}

TEST(TypeLibrary, ResolveInlinePatternsAndNames) {
  TypeLibrary lib = TypeLibrary::Default();
  std::optional<regex::Regex> named = lib.Resolve("hexline");
  ASSERT_TRUE(named.has_value());
  EXPECT_TRUE(named->Matches("beef"));
  std::optional<regex::Regex> inline_pat = lib.Resolve("/ab+/");
  ASSERT_TRUE(inline_pat.has_value());
  EXPECT_TRUE(inline_pat->Matches("abb"));
  EXPECT_FALSE(lib.Resolve("unknown-name").has_value());
}

TEST(TypeLibrary, UserDefinitionsExtend) {
  TypeLibrary lib = TypeLibrary::Default();
  lib.Define("steamroot", *regex::Regex::FromPattern("/home/[^/\\n]+/\\.steam"));
  ASSERT_NE(lib.Find("steamroot"), nullptr);
  EXPECT_TRUE(lib.Find("steamroot")->Matches("/home/jcarb/.steam"));
  // Redefinition replaces.
  lib.Define("steamroot", regex::Regex::Literal("/opt/steam"));
  EXPECT_TRUE(lib.Find("steamroot")->Matches("/opt/steam"));
  EXPECT_FALSE(lib.Find("steamroot")->Matches("/home/jcarb/.steam"));
}

TEST(TypeOf, IntrospectionPicksBestName) {
  TypeLibrary lib = TypeLibrary::Default();
  EXPECT_EQ(TypeOf(lib, *regex::Regex::FromPattern("[0-9a-f]+")), "hexline");
  EXPECT_EQ(TypeOf(lib, regex::Regex::Nothing()), "none");
  EXPECT_EQ(TypeOf(lib, *regex::Regex::FromPattern("-?\\d+")), "number");
  // A subtype of number that is no library type exactly: containment names it.
  EXPECT_EQ(TypeOf(lib, *regex::Regex::FromPattern("\\d{3}")), "number");
}

TEST(CommandType, DisplayStrings) {
  CommandType sort_g;
  sort_g.polymorphic = true;
  sort_g.bound = Rx("0x[0-9a-f]+.*");
  sort_g.input = TypeExpr::Var();
  sort_g.output = TypeExpr::Var();
  EXPECT_EQ(sort_g.ToString(), "∀α ⊆ 0x[0-9a-f]+.*. α → α");

  CommandType mono;
  mono.input = TypeExpr::Lang(regex::Regex::AnyLine());
  mono.output = TypeExpr::Lang(Rx("desc.*"));
  EXPECT_EQ(mono.ToString(), ".* → desc.*");
}

// ---- Hash-consed languages on the typing path ----

// A seeded set of small patterns: one to three atoms, drawn with the raw
// mt19937 stream (its output is fixed by the standard, unlike distributions).
std::vector<regex::Regex> SeededPatterns(uint32_t seed, int count) {
  static const char* kAtoms[] = {"a",      "b+",    "0x",       "[0-9a-f]+", "\\d+",
                                 ".*",     "[a-z]*", "(ab|c)",  "/",         "x?",
                                 ":\\t", "-",     "[^/\\n]+", " *",       "Desc"};
  constexpr uint32_t kNumAtoms = sizeof(kAtoms) / sizeof(kAtoms[0]);
  std::mt19937 rng(seed);
  std::vector<regex::Regex> out;
  for (int i = 0; i < count; ++i) {
    std::string pattern;
    for (uint32_t n = 1 + rng() % 3; n > 0; --n) {
      pattern += kAtoms[rng() % kNumAtoms];
    }
    out.push_back(Rx(pattern.c_str()));
  }
  return out;
}

// The memoized Regex algebra answers what the direct Dfa algebra answers,
// on the first (computing) and the second (cached) call alike.
TEST(HashCons, MemoizedAlgebraAgreesWithDirectDfaAlgebra) {
  TypeLibrary lib = TypeLibrary::Default();
  std::vector<regex::Regex> patterns = SeededPatterns(20241019, 12);
  for (const std::string& name : lib.Names()) {
    const regex::Regex& l = *lib.Find(name);
    const regex::Dfa not_l = l.dfa().Complement();
    for (int round = 0; round < 2; ++round) {
      EXPECT_TRUE(l.Complement().dfa().EquivalentTo(not_l)) << name;
      for (const regex::Regex& p : patterns) {
        SCOPED_TRACE(name + " / " + p.pattern());
        EXPECT_TRUE(l.Concat(p).dfa().EquivalentTo(
            regex::Dfa::FromNfa(regex::ConcatNfa(l.dfa().ToNfa(), p.dfa().ToNfa()))));
        EXPECT_TRUE(l.Complement().Concat(p).dfa().EquivalentTo(
            regex::Dfa::FromNfa(regex::ConcatNfa(not_l.ToNfa(), p.dfa().ToNfa()))));
        EXPECT_TRUE(l.Intersect(p).dfa().EquivalentTo(l.dfa().Intersect(p.dfa())));
        EXPECT_TRUE(p.Intersect(l).dfa().EquivalentTo(p.dfa().Intersect(l.dfa())));
        EXPECT_EQ(l.IncludedIn(p), l.dfa().IncludedIn(p.dfa()));
        EXPECT_EQ(p.IncludedIn(l), p.dfa().IncludedIn(l.dfa()));
        EXPECT_EQ(l.EquivalentTo(p), l.dfa().EquivalentTo(p.dfa()));
      }
    }
  }
}

const char* const kPipelines[] = {
    "lsb_release -a | grep '^desc' | cut -f 2",
    "grep -o '[0-9a-f]+' f | sed 's/^/0x/' | sort -g",
    "cat f | grep -v x | uniq -c | sort -n",
    "grep -F 'a.b' f | sed 's/$/;/' | wc -l",
    "echo hello | grep h | tr a-z A-Z | cut -d : -f 1",
};

// A pipeline checked again derives nothing new: the cache does not grow, and
// every stage's languages are the first check's (one DFA each).
TEST(HashCons, SecondCheckAddsNoEntriesAndSharesDfas) {
  stream::PipelineChecker checker;
  for (const char* src : kPipelines) {
    SCOPED_TRACE(src);
    syntax::ParseOutput parsed = syntax::Parse(src);
    ASSERT_TRUE(parsed.ok());
    const syntax::Command& pipe = *parsed.program.body;
    stream::PipelineReport first = checker.Check(pipe);
    size_t size = regex::PatternCache::Size();
    stream::PipelineReport second = checker.Check(pipe);
    EXPECT_EQ(regex::PatternCache::Size(), size);
    ASSERT_EQ(first.stages.size(), second.stages.size());
    for (size_t i = 0; i < first.stages.size(); ++i) {
      const stream::StageReport& a = first.stages[i];
      const stream::StageReport& b = second.stages[i];
      ASSERT_EQ(a.output_lang.has_value(), b.output_lang.has_value());
      if (a.output_lang.has_value()) {
        EXPECT_EQ(&a.output_lang->dfa(), &b.output_lang->dfa()) << "stage " << i;
      }
      ASSERT_EQ(a.input_expect.has_value(), b.input_expect.has_value());
      if (a.input_expect.has_value()) {
        EXPECT_EQ(&a.input_expect->dfa(), &b.input_expect->dfa()) << "stage " << i;
      }
    }
    EXPECT_EQ(&first.final_output->dfa(), &second.final_output->dfa());
  }
}

// Everything a check observes, as text: equal strings mean equal answers.
std::string Fingerprint(const stream::PipelineReport& report) {
  std::string out;
  for (const stream::StageReport& s : report.stages) {
    out += s.command + " :: " + s.type_display.value_or("untyped") + " -> " + s.output_pattern +
           (s.killed_stream ? " dead" : "") + (s.type_error ? " error " + s.error : "") + "\n";
  }
  out += report.final_output->IsEmptyLanguage() ? "final empty\n" : "final live\n";
  return out;
}

// Threads that check the same pipelines and apply the same types race to
// insert the same derived languages; every thread must see the same answers.
// Runs under the SanitizeThread preset (label concurrency).
TEST(HashCons, ConcurrentChecksAgree) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  std::vector<syntax::ParseOutput> parsed;
  for (const char* src : kPipelines) {
    parsed.push_back(syntax::Parse(src));
    ASSERT_TRUE(parsed.back().ok()) << src;
  }
  TypeLibrary lib = TypeLibrary::Default();
  CommandType sed;
  sed.polymorphic = true;
  sed.input = TypeExpr::Var();
  sed.output = TypeExpr::Concat({TypeExpr::Prefix("0x"), TypeExpr::Var()});
  CommandType sort_g;
  sort_g.polymorphic = true;
  sort_g.bound = Rx("0x[0-9a-f]+.*");
  sort_g.input = TypeExpr::Var();
  sort_g.output = TypeExpr::Var();
  regex::PatternCache::Clear();
  std::vector<std::string> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      stream::PipelineChecker checker;
      std::string& out = seen[static_cast<size_t>(t)];
      for (int round = 0; round < kRounds; ++round) {
        for (const syntax::ParseOutput& p : parsed) {
          out += Fingerprint(checker.Check(*p.program.body));
        }
        for (const std::string& name : lib.Names()) {
          ApplyResult hex = Apply(sort_g, Apply(sed, *lib.Find(name)).output.value());
          out += name + (hex.ok ? " sorts " + hex.output->pattern() : " " + hex.error) + "\n";
        }
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<size_t>(t)], seen[0]) << "thread " << t;
  }
  EXPECT_NE(seen[0].find("dead"), std::string::npos);  // Fig. 5 is among them.
}

}  // namespace
}  // namespace sash::rtypes
