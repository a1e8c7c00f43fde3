#include <gtest/gtest.h>

#include <random>

#include "derivative.h"
#include "regex/parser.h"
#include "regex/regex.h"
#include "rtypes/types.h"

namespace sash::regex {
namespace {

Regex Rx(std::string_view pattern) {
  std::string error;
  std::optional<Regex> r = Regex::FromPattern(pattern, &error);
  EXPECT_TRUE(r.has_value()) << "pattern '" << pattern << "': " << error;
  return r.value_or(Regex::Nothing());
}

TEST(CharSet, BasicOps) {
  CharSet digits = CharSet::Range('0', '9');
  EXPECT_TRUE(digits.Contains('5'));
  EXPECT_FALSE(digits.Contains('a'));
  EXPECT_EQ(digits.Count(), 10u);
  CharSet all = CharSet::All();
  EXPECT_EQ(all.Count(), 256u);
  CharSet inv = digits.Complement();
  EXPECT_FALSE(inv.Contains('0'));
  EXPECT_TRUE(inv.Contains('a'));
  EXPECT_TRUE(digits.Intersect(inv).Empty());
  EXPECT_EQ(digits.Union(inv).Count(), 256u);
  EXPECT_EQ(digits.Minus(CharSet::Of('5')).Count(), 9u);
  EXPECT_EQ(digits.First(), '0');
}

TEST(CharSet, ToStringRoundTrips) {
  EXPECT_EQ(CharSet::AnyExceptNewline().ToString(), ".");
  EXPECT_EQ(CharSet::Of('a').ToString(), "a");
  std::string s = CharSet::Range('a', 'f').Union(CharSet::Range('0', '9')).ToString();
  EXPECT_EQ(s, "[0-9a-f]");
}

TEST(Parser, RejectsMalformed) {
  EXPECT_FALSE(ParsePattern("(").ok());
  EXPECT_FALSE(ParsePattern("a)").ok());
  EXPECT_FALSE(ParsePattern("[abc").ok());
  EXPECT_FALSE(ParsePattern("*a").ok());
  EXPECT_FALSE(ParsePattern("a\\").ok());
  EXPECT_FALSE(ParsePattern("a{3,1}").ok());
  EXPECT_FALSE(ParsePattern("ab^cd").ok());
}

TEST(Parser, AcceptsEdgeAnchors) {
  EXPECT_TRUE(ParsePattern("^abc$").ok());
  EXPECT_TRUE(ParsePattern("^abc").ok());
  EXPECT_TRUE(ParsePattern("abc$").ok());
}

TEST(Regex, LiteralMatching) {
  Regex r = Rx("hello");
  EXPECT_TRUE(r.Matches("hello"));
  EXPECT_FALSE(r.Matches("hell"));
  EXPECT_FALSE(r.Matches("helloo"));
  EXPECT_FALSE(r.Matches(""));
}

TEST(Regex, QuantifierSemantics) {
  EXPECT_TRUE(Rx("a*").Matches(""));
  EXPECT_TRUE(Rx("a*").Matches("aaaa"));
  EXPECT_FALSE(Rx("a+").Matches(""));
  EXPECT_TRUE(Rx("a+").Matches("a"));
  EXPECT_TRUE(Rx("a?").Matches(""));
  EXPECT_TRUE(Rx("a?").Matches("a"));
  EXPECT_FALSE(Rx("a?").Matches("aa"));
  EXPECT_TRUE(Rx("a{2,3}").Matches("aa"));
  EXPECT_TRUE(Rx("a{2,3}").Matches("aaa"));
  EXPECT_FALSE(Rx("a{2,3}").Matches("a"));
  EXPECT_FALSE(Rx("a{2,3}").Matches("aaaa"));
  EXPECT_TRUE(Rx("a{2}").Matches("aa"));
  EXPECT_FALSE(Rx("a{2}").Matches("aaa"));
  EXPECT_TRUE(Rx("a{2,}").Matches("aaaaa"));
  EXPECT_FALSE(Rx("a{2,}").Matches("a"));
}

TEST(Regex, AlternationAndGrouping) {
  Regex r = Rx("(ab|cd)+");
  EXPECT_TRUE(r.Matches("ab"));
  EXPECT_TRUE(r.Matches("abcdab"));
  EXPECT_FALSE(r.Matches("abc"));
  EXPECT_FALSE(r.Matches(""));
}

TEST(Regex, DotExcludesNewline) {
  Regex r = Rx(".*");
  EXPECT_TRUE(r.Matches("anything at all"));
  EXPECT_FALSE(r.Matches("two\nlines"));
}

TEST(Regex, BracketClasses) {
  Regex hex = Rx("[0-9a-f]+");
  EXPECT_TRUE(hex.Matches("deadbeef123"));
  EXPECT_FALSE(hex.Matches("DEADBEEF"));
  EXPECT_FALSE(hex.Matches(""));
  Regex neg = Rx("[^/]+");
  EXPECT_TRUE(neg.Matches("no-slash"));
  EXPECT_FALSE(neg.Matches("a/b"));
  Regex named = Rx("[[:digit:]]+");
  EXPECT_TRUE(named.Matches("123"));
  EXPECT_FALSE(named.Matches("12a"));
  Regex xd = Rx("[[:xdigit:]]{2}");
  EXPECT_TRUE(xd.Matches("fF"));
  EXPECT_FALSE(xd.Matches("gg"));
  Regex literal_dash = Rx("[a-]+");
  EXPECT_TRUE(literal_dash.Matches("a-a"));
}

TEST(Regex, Escapes) {
  EXPECT_TRUE(Rx("\\d+").Matches("42"));
  EXPECT_FALSE(Rx("\\d+").Matches("4a"));
  EXPECT_TRUE(Rx("a\\.b").Matches("a.b"));
  EXPECT_FALSE(Rx("a\\.b").Matches("axb"));
  EXPECT_TRUE(Rx("\\w+").Matches("snake_case9"));
  EXPECT_TRUE(Rx("a\\tb").Matches("a\tb"));
  EXPECT_TRUE(Rx("\\s").Matches(" "));
}

// The paper's path regular expression (§3): /?([^/]*/)*[^/]+
TEST(Regex, PaperPathRegex) {
  Regex path = Rx("/?([^/]*/)*[^/]+");
  EXPECT_TRUE(path.Matches("/home/jcarb/.steam"));
  EXPECT_TRUE(path.Matches("upd.sh"));
  EXPECT_TRUE(path.Matches("a/b/c"));
  EXPECT_FALSE(path.Matches(""));
  EXPECT_TRUE(path.Matches("/x"));
}

// The paper's lsb_release line type (§3).
TEST(Regex, PaperLsbReleaseType) {
  Regex t = Rx("(Distributor ID|Description|Release|Codename):\\t.*");
  EXPECT_TRUE(t.Matches("Description:\tDebian GNU/Linux 12"));
  EXPECT_TRUE(t.Matches("Codename:\tbookworm"));
  EXPECT_FALSE(t.Matches("description:\tnope"));
  EXPECT_FALSE(t.Matches("Description: no-tab"));
}

TEST(Regex, SearchPatternSemantics) {
  std::optional<Regex> r = Regex::FromSearchPattern("^desc");
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->Matches("description"));
  EXPECT_FALSE(r->Matches("Description"));
  std::optional<Regex> mid = Regex::FromSearchPattern("err");
  ASSERT_TRUE(mid.has_value());
  EXPECT_TRUE(mid->Matches("an error here"));
  EXPECT_FALSE(mid->Matches("fine"));
  std::optional<Regex> end = Regex::FromSearchPattern("sh$");
  ASSERT_TRUE(end.has_value());
  EXPECT_TRUE(end->Matches("upd.sh"));
  EXPECT_FALSE(end->Matches("sh.upd"));
}

// Fig. 5's core claim: L(lsb output) ∩ L(grep '^desc' output constraint) = ∅.
TEST(Regex, Fig5EmptyIntersection) {
  Regex lsb = Rx("(Distributor ID|Description|Release|Codename):\\t.*");
  Regex grep_out = Rx("desc.*");
  EXPECT_TRUE(lsb.Intersect(grep_out).IsEmptyLanguage());
  // The corrected filter is non-empty.
  Regex grep_fixed = Rx("Desc.*");
  EXPECT_FALSE(lsb.Intersect(grep_fixed).IsEmptyLanguage());
}

TEST(Regex, IntersectUnion) {
  Regex a = Rx("[ab]+");
  Regex b = Rx("[bc]+");
  Regex both = a.Intersect(b);
  EXPECT_TRUE(both.Matches("bbb"));
  EXPECT_FALSE(both.Matches("ab"));
  Regex either = a.Union(b);
  EXPECT_TRUE(either.Matches("aa"));
  EXPECT_TRUE(either.Matches("cc"));
  EXPECT_FALSE(either.Matches("ac"));
}

TEST(Regex, ComplementAndDifference) {
  Regex a = Rx("a+");
  Regex not_a = a.Complement();
  EXPECT_FALSE(not_a.Matches("aaa"));
  EXPECT_TRUE(not_a.Matches("b"));
  EXPECT_TRUE(not_a.Matches(""));
  EXPECT_TRUE(a.Intersect(not_a).IsEmptyLanguage());
  EXPECT_TRUE(a.Union(not_a).IsUniversal());
}

// Subtyping is language inclusion — the §4 sort -g example:
// 0x[0-9a-f]+ ⊆ 0x[0-9a-f]+.*
TEST(Regex, InclusionPaperExample) {
  Regex concrete = Rx("0x[0-9a-f]+");
  Regex bound = Rx("0x[0-9a-f]+.*");
  EXPECT_TRUE(concrete.IncludedIn(bound));
  EXPECT_FALSE(bound.IncludedIn(concrete));
  EXPECT_TRUE(concrete.IncludedIn(concrete));
}

TEST(Regex, Equivalence) {
  EXPECT_TRUE(Rx("(a|b)*").EquivalentTo(Rx("(b|a)*")));
  EXPECT_TRUE(Rx("a(ba)*").EquivalentTo(Rx("(ab)*a")));
  EXPECT_FALSE(Rx("a+").EquivalentTo(Rx("a*")));
}

TEST(Regex, EmptinessAndUniversality) {
  EXPECT_TRUE(Regex::Nothing().IsEmptyLanguage());
  EXPECT_FALSE(Regex::Nothing().Matches(""));
  EXPECT_TRUE(Regex::Epsilon().Matches(""));
  EXPECT_FALSE(Regex::Epsilon().Matches("a"));
  Regex contradiction = Rx("a").Intersect(Rx("b"));
  EXPECT_TRUE(contradiction.IsEmptyLanguage());
}

TEST(Regex, WitnessIsShortest) {
  std::optional<std::string> w = Rx("aa+b").Witness();
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(*w, "aab");
  EXPECT_FALSE(Regex::Nothing().Witness().has_value());
  std::optional<std::string> e = Rx("a*").Witness();
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(*e, "");
}

TEST(Regex, SamplesAreMembers) {
  Regex r = Rx("(ab|c)+d?");
  std::vector<std::string> samples = r.Samples(10);
  EXPECT_FALSE(samples.empty());
  for (const std::string& s : samples) {
    EXPECT_TRUE(r.Matches(s)) << "non-member sample: " << s;
  }
}

TEST(Regex, ConcatAndStarFacade) {
  Regex ab = Rx("a").Concat(Rx("b"));
  EXPECT_TRUE(ab.Matches("ab"));
  EXPECT_FALSE(ab.Matches("a"));
  Regex star = Rx("ab").Star();
  EXPECT_TRUE(star.Matches(""));
  EXPECT_TRUE(star.Matches("ababab"));
  // Concat through a complement (DFA-only operand).
  Regex weird = Rx("a+").Complement().Concat(Rx("!"));
  EXPECT_TRUE(weird.Matches("b!"));
  EXPECT_TRUE(weird.Matches("!"));       // ε ∈ L(¬a+)
  EXPECT_TRUE(weird.Matches("aaa!!"));   // "aaa!" ∈ ¬a+ then "!".
  EXPECT_FALSE(weird.Matches("aaa!"));   // Would need "aaa" ∈ ¬a+.
  Regex star2 = Rx("ab").Complement().Intersect(Rx("(ab)*")).Star();
  EXPECT_TRUE(star2.Matches("abab"));    // (ab)(ab) each ≠ "ab"? No — via ""+"abab".
}

TEST(Regex, LineTypesFromTheTypeLibrary) {
  // `longlist` — output lines of ls -l (simplified shape).
  Regex longlist = Rx("[-dlbcps][-rwxsStT]{9} +\\d+ +\\w+ +\\w+ +\\d+ .*");
  EXPECT_TRUE(longlist.Matches("-rw-r--r-- 1 root root 4096 Jul  1 10:00 notes.txt"));
  EXPECT_TRUE(longlist.Matches("drwxr-xr-x 2 alice staff 64 Jan  5 09:30 dir"));
  EXPECT_FALSE(longlist.Matches("total 12"));
}

TEST(Derivative, MatchesAgreeWithDfa) {
  const char* patterns[] = {"a*b", "(ab|c)+", "[0-9a-f]+", "/?([^/]*/)*[^/]+", "x?y{2,3}z"};
  const char* inputs[] = {"",      "a",   "b",    "aab",          "abc",
                          "cabab", "123", "beef", "/home/u/file", "xyyz"};
  for (const char* p : patterns) {
    ParseResult parsed = ParsePattern(p);
    ASSERT_TRUE(parsed.ok()) << p;
    Regex r = Rx(p);
    for (const char* in : inputs) {
      EXPECT_EQ(DerivativeMatch(parsed.node, in), r.Matches(in))
          << "pattern " << p << " input " << in;
    }
  }
}

TEST(Derivative, StepwiseRejectionOnEmpty) {
  ParseResult parsed = ParsePattern("abc");
  ASSERT_TRUE(parsed.ok());
  NodePtr d = Derivative(parsed.node, 'x');
  EXPECT_EQ(d->kind, NodeKind::kEmpty);
}

TEST(Ast, SmartConstructorLaws) {
  // ∅ annihilates concat; ε is identity.
  EXPECT_EQ(MakeConcat2(MakeEmpty(), MakeLiteral("x"))->kind, NodeKind::kEmpty);
  EXPECT_TRUE(StructurallyEqual(MakeConcat2(MakeEpsilon(), MakeLiteral("x")), MakeLiteral("x")));
  // ∅ is identity of alt.
  EXPECT_TRUE(StructurallyEqual(MakeAlt2(MakeEmpty(), MakeLiteral("x")), MakeLiteral("x")));
  // (r*)* = r*.
  NodePtr star = MakeStar(MakeLiteral("a"));
  EXPECT_TRUE(StructurallyEqual(MakeStar(star), star));
  // Nullability.
  EXPECT_TRUE(Nullable(MakeStar(MakeLiteral("a"))));
  EXPECT_FALSE(Nullable(MakeLiteral("a")));
  EXPECT_TRUE(Nullable(MakeOptional(MakeLiteral("a"))));
}

TEST(Ast, PatternPrinterRoundTrips) {
  const char* patterns[] = {"abc", "a|b", "(ab)*", "[0-9a-f]+", "a?b+c*"};
  for (const char* p : patterns) {
    ParseResult parsed = ParsePattern(p);
    ASSERT_TRUE(parsed.ok()) << p;
    std::string printed = ToPattern(parsed.node);
    ParseResult reparsed = ParsePattern(printed);
    ASSERT_TRUE(reparsed.ok()) << printed;
    EXPECT_TRUE(Rx(p).EquivalentTo(Regex::FromAst(reparsed.node)))
        << p << " vs " << printed;
  }
}

TEST(Dfa, MinimizationShrinksAndPreserves) {
  ParseResult parsed = ParsePattern("(a|b)*abb");
  ASSERT_TRUE(parsed.ok());
  Dfa big = Dfa::FromAst(parsed.node);
  Dfa small = big.Minimize();
  EXPECT_LE(small.NumStates(), big.NumStates());
  const char* inputs[] = {"abb", "aabb", "babb", "ab", "abba", ""};
  for (const char* in : inputs) {
    EXPECT_EQ(big.Accepts(in), small.Accepts(in)) << in;
  }
  // Classic result: minimal DFA for (a|b)*abb has 4 live states (+ maybe dead).
  EXPECT_LE(small.NumStates(), 5);
}

TEST(Dfa, IncrementalSteppingAndDeadStates) {
  ParseResult parsed = ParsePattern("ab");
  ASSERT_TRUE(parsed.ok());
  Dfa dfa = Dfa::FromAst(parsed.node).Minimize();
  int s = dfa.StartState();
  EXPECT_FALSE(dfa.IsAccepting(s));
  s = dfa.Step(s, 'a');
  EXPECT_FALSE(dfa.IsDeadState(s));
  s = dfa.Step(s, 'b');
  EXPECT_TRUE(dfa.IsAccepting(s));
  s = dfa.Step(s, 'b');
  EXPECT_TRUE(dfa.IsDeadState(s));  // No recovery after "abb".
}

// ---- Hash-consing: one identity per language, derived once per process ----

TEST(HashCons, ConstantsAndLiteralsShareOneDfa) {
  EXPECT_EQ(&Regex::AnyLine().dfa(), &Regex::AnyLine().dfa());
  EXPECT_EQ(&Regex::Nothing().dfa(), &Regex::Nothing().dfa());
  EXPECT_EQ(&Regex::Epsilon().dfa(), &Regex::Epsilon().dfa());
  EXPECT_EQ(&Regex::Literal("hash-cons").dfa(), &Regex::Literal("hash-cons").dfa());
  // A literal and a pattern of the same text are keyed apart.
  EXPECT_FALSE(Regex::Literal("a.b").Matches("axb"));
  EXPECT_TRUE(Rx("a.b").Matches("axb"));
}

TEST(HashCons, DerivedLanguagesAreBuiltOnce) {
  Regex a = Rx("[ab]+");
  Regex b = Rx("b[bc]*");
  EXPECT_EQ(&a.Concat(b).dfa(), &a.Concat(b).dfa());
  EXPECT_EQ(&a.Intersect(b).dfa(), &a.Intersect(b).dfa());
  EXPECT_EQ(&a.Complement().dfa(), &a.Complement().dfa());
  // Both operands and their order are part of the key.
  EXPECT_TRUE(a.Concat(b).Matches("ab"));
  EXPECT_FALSE(b.Concat(a).Matches("ab"));
  EXPECT_TRUE(a.Concat(Rx("c+")).Matches("ac"));
  EXPECT_FALSE(a.Concat(Rx("c+")).Matches("ab"));
  EXPECT_TRUE(a.Intersect(Rx("a+")).Matches("aa"));
  EXPECT_FALSE(a.Intersect(Rx("a+")).Matches("b"));
  // Complement-derived operands take the automaton path of Concat.
  Regex not_a = a.Complement();
  EXPECT_EQ(&not_a.Concat(b).dfa(), &not_a.Concat(b).dfa());
  EXPECT_TRUE(not_a.Concat(b).Matches("cb"));
  // Inclusion verdicts are memoized per ordered pair.
  EXPECT_TRUE(Rx("b+").IncludedIn(a));
  EXPECT_FALSE(a.IncludedIn(Rx("b+")));
  EXPECT_TRUE(Rx("b+").IncludedIn(a));
  EXPECT_FALSE(a.IncludedIn(Rx("b+")));
  // A second derivation adds no entries.
  EXPECT_FALSE(a.IncludedIn(b));
  size_t size = PatternCache::Size();
  a.Concat(b);
  a.Intersect(b);
  a.Complement();
  a.IncludedIn(b);
  EXPECT_EQ(PatternCache::Size(), size);
}

// Once the cache holds its 8,192 entries, new keys are computed uncached:
// the answers stay right and the cache stops growing.
TEST(HashCons, FullCacheStillAnswersCorrectly) {
  PatternCache::Clear();
  for (int i = 0; PatternCache::Size() < 8192; ++i) {
    Regex::Literal("filler-" + std::to_string(i));
    ASSERT_LT(i, 10000);
  }
  Regex a = Regex::Literal("full-a").Concat(Rx("[0-9]+"));
  Regex b = Rx("full-[a-z]+[0-9]*");
  EXPECT_EQ(PatternCache::Size(), 8192u);
  Regex cat = a.Concat(b);
  EXPECT_TRUE(cat.Matches("full-a12full-x"));
  EXPECT_FALSE(cat.Matches("full-a12"));
  EXPECT_NE(&cat.dfa(), &a.Concat(b).dfa());  // Uncached: built again.
  EXPECT_TRUE(cat.dfa().EquivalentTo(a.Concat(b).dfa()));
  Regex both = a.Intersect(b);
  EXPECT_TRUE(both.dfa().EquivalentTo(a.dfa().Intersect(b.dfa())));
  EXPECT_TRUE(both.Matches("full-a7"));
  Regex not_a = a.Complement();
  EXPECT_TRUE(not_a.dfa().EquivalentTo(a.dfa().Complement()));
  EXPECT_FALSE(not_a.Matches("full-a7"));
  EXPECT_TRUE(a.IncludedIn(b));
  EXPECT_TRUE(a.IncludedIn(b));
  EXPECT_FALSE(b.IncludedIn(a));
  EXPECT_TRUE(a.EquivalentTo(a));
  EXPECT_EQ(PatternCache::Size(), 8192u);
  PatternCache::Clear();
  EXPECT_EQ(PatternCache::Size(), 0u);
}

// ---- AcceptsLine: the accelerated line scan decides as Accepts does ----

// Newline-free lines: the empty line, '\r', '\t', high bytes, CSV and
// type-library shapes, long runs between exit bytes, and seeded
// lines over an alphabet that mixes all of those.
std::vector<std::string> ProbeLines() {
  std::vector<std::string> lines = {
      "", "a", ",", ",ok", "x,ok", "x,o", ",ok,", "alpha", "alph", "xalphay", "al\xff" "pha",
      "12345,alpha12,123456,ok", "12345,beta7,99,err", "-12", "007", "0x1f", "1.5", "\t",
      " \t\r", "\r", "ok\r", "\xff\xfe", "caf\xc3\xa9", "/home/u/file", "rel/path/",
      "http://x.y/z", "Description:\tDebian", "drwxr-xr-x 2 alice staff 64 Jan  5 09:30 dir",
      std::string("nul\0byte", 8)};
  lines.push_back(std::string(100, 'a'));
  lines.push_back(std::string(100, 'a') + ",ok");
  lines.push_back(std::string(100, 'a') + "," + std::string(40, 'b'));
  lines.push_back("alpha" + std::string(100, 'z') + "\xff");
  lines.push_back(std::string(60, '\xe9') + "alpha" + std::string(60, ','));
  std::mt19937 rng(20261020);
  const std::string alphabet = std::string("aAlph,ok,0123- \t\r\xe9\xff./x:", 24);
  for (int n = 0; n < 150; ++n) {
    std::string line;
    const size_t len = rng() % (n % 3 == 0 ? 90 : 12);
    for (size_t c = 0; c < len; ++c) {
      line += alphabet[rng() % alphabet.size()];
    }
    lines.push_back(line);
  }
  return lines;
}

void ExpectAcceptsLineAgrees(const Dfa& dfa, const std::string& what) {
  for (const std::string& line : ProbeLines()) {
    EXPECT_EQ(dfa.AcceptsLine(line), dfa.Accepts(line)) << what << " on '" << line << "'";
  }
}

TEST(AcceptsLine, AgreesWithAcceptsOnTheTypeLibrary) {
  const rtypes::TypeLibrary& lib = rtypes::TypeLibrary::Default();
  for (const std::string& name : lib.Names()) {
    const Regex& type = *lib.Find(name);
    ExpectAcceptsLineAgrees(type.dfa(), name);
    ExpectAcceptsLineAgrees(type.Complement().dfa(), "!" + name);
  }
}

// The languages grep and the monitor build: search languages, grep -F's
// .*lit.*, and the Concat/Intersect/Complement derivations of the type
// checker — minimized through Regex, and raw (unminimized, several dead
// states) through Dfa.
TEST(AcceptsLine, AgreesOnSearchAndDerivedLanguages) {
  const rtypes::TypeLibrary& lib = rtypes::TypeLibrary::Default();
  std::vector<std::pair<std::string, Regex>> langs;
  for (const char* p : {"alpha", ",ok$", "^desc", "err", "a.c", "[0-9]+", "^$", ",", "\\t"}) {
    std::optional<Regex> search = Regex::FromSearchPattern(p);
    ASSERT_TRUE(search.has_value()) << p;
    langs.emplace_back(std::string("search ") + p, *search);
  }
  langs.emplace_back("-F ,ok",
                     Regex::AnyLine().Concat(Regex::Literal(",ok")).Concat(Regex::AnyLine()));
  const Regex number = *lib.Find("number");
  const Regex any = *lib.Find("any");
  const Regex alpha = *Regex::FromSearchPattern("alpha");
  langs.emplace_back("number.any", number.Concat(any));
  langs.emplace_back("search∩word", alpha.Intersect(*lib.Find("word")));
  langs.emplace_back("!search", alpha.Complement());
  langs.emplace_back("!search∩number", alpha.Complement().Intersect(number));
  langs.emplace_back("!number.,", number.Complement().Concat(Rx(",")));
  for (const auto& [what, lang] : langs) {
    ExpectAcceptsLineAgrees(lang.dfa(), what);
  }
  for (const char* p : {".*alpha.*", ".*,ok", "[^,]*,[0-9]+", "(a|b)*abb"}) {
    ParseResult parsed = ParsePattern(p);
    ASSERT_TRUE(parsed.ok()) << p;
    const Dfa raw = Dfa::FromAst(parsed.node);
    ExpectAcceptsLineAgrees(raw, std::string("unminimized ") + p);
    ExpectAcceptsLineAgrees(raw.Intersect(number.dfa()), std::string("product ") + p);
    ExpectAcceptsLineAgrees(raw.Complement(), std::string("complement ") + p);
  }
}

// '\n' shares a byte class with other bytes here, so the exit sets are
// read off classes that mix '\n' with bytes a line can hold.
TEST(AcceptsLine, AgreesWhereNewlineSharesAClass) {
  for (const char* p : {"[^,]*", "\\s*", "\\S+", "[^a]*b", "[^,]*,[^,]*", "(\\s|x)*y"}) {
    ExpectAcceptsLineAgrees(Rx(p).dfa(), p);
  }
  EXPECT_EQ(Rx("[^,]*").dfa().LineExitBytes(Rx("[^,]*").dfa().StartState()), ",");
  EXPECT_TRUE(Rx("\\s*").dfa().AcceptsLine(" \t\r"));
  EXPECT_FALSE(Rx("\\s*").dfa().AcceptsLine(" x"));
  EXPECT_TRUE(Rx("\\S+").dfa().AcceptsLine("\xff,ok"));
  EXPECT_FALSE(Rx("\\S+").dfa().AcceptsLine("a\rb"));
}

TEST(AcceptsLine, PinsTheExitBytes) {
  // `.*`'s start state: no byte leaves it, and it accepts.
  const Dfa& any = Regex::AnyLine().dfa();
  EXPECT_EQ(any.LineExitBytes(any.StartState()), "");
  EXPECT_TRUE(any.AcceptsEveryLine());
  // `[^,\n]*`: only ',' leaves the start state.
  const Dfa& field = Rx("[^,\\n]*").dfa();
  EXPECT_EQ(field.LineExitBytes(field.StartState()), ",");
  EXPECT_FALSE(field.AcceptsEveryLine());
  // `number` is not accelerated: only its dead state decides a line.
  const Dfa& number = rtypes::TypeLibrary::Default().Find("number")->dfa();
  EXPECT_FALSE(number.AcceptsEveryLine());
  for (int s = 0; s < number.NumStates(); ++s) {
    if (number.IsDeadState(s)) {
      EXPECT_EQ(number.LineExitBytes(s), "") << s;
    } else {
      EXPECT_EQ(number.LineExitBytes(s), std::nullopt) << s;
    }
  }
  // grep 'alpha' jumps to each 'a', and after "alpha" accepts the rest.
  const Dfa& alpha = Regex::FromSearchPattern("alpha")->dfa();
  EXPECT_EQ(alpha.LineExitBytes(alpha.StartState()), "a");
  int s = alpha.StartState();
  for (char c : std::string_view("alpha")) {
    s = alpha.Step(s, static_cast<unsigned char>(c));
  }
  EXPECT_EQ(alpha.LineExitBytes(s), "");
  EXPECT_TRUE(alpha.IsAccepting(s));
  // grep ',ok$' jumps to each ','.
  const Dfa& ok = Regex::FromSearchPattern(",ok$")->dfa();
  EXPECT_EQ(ok.LineExitBytes(ok.StartState()), ",");
  // Up to three exit bytes, sorted; a fourth makes the state step.
  const Dfa& three = Rx("[^abc]*").dfa();
  EXPECT_EQ(three.LineExitBytes(three.StartState()), "abc");
  for (std::string_view line : {"xyzxyza", "xyzxyzb", "xyzxyzc", "xyzxyz"}) {
    EXPECT_EQ(three.AcceptsLine(line), three.Accepts(line)) << line;
  }
  const Dfa& four = Rx("[^abcd]*").dfa();
  EXPECT_EQ(four.LineExitBytes(four.StartState()), std::nullopt);
}

// Seeded random patterns over a small alphabet, checked against the
// derivative matcher, which builds no automaton.
std::string RandomPattern(std::mt19937& rng, int depth) {
  static const char* const kAtoms[] = {"a", "b", ",", "\t", "\xe9", ".", "[^,]", "[ab]",
                                       "\\s", "\\S", "\\d", "[^a\\n]", "[a-c,]"};
  const unsigned pick = depth <= 0 ? 0 : rng() % 6;
  switch (pick) {
    case 1:
      return RandomPattern(rng, depth - 1) + RandomPattern(rng, depth - 1);
    case 2:
      return "(" + RandomPattern(rng, depth - 1) + "|" + RandomPattern(rng, depth - 1) + ")";
    case 3:
      return "(" + RandomPattern(rng, depth - 1) + ")*";
    case 4:
      return "(" + RandomPattern(rng, depth - 1) + ")+";
    case 5:
      return "(" + RandomPattern(rng, depth - 1) + ")?";
    default:
      return kAtoms[rng() % std::size(kAtoms)];
  }
}

TEST(AcceptsLine, RandomPatternsAgreeWithDerivatives) {
  std::mt19937 rng(29);
  std::vector<std::string> lines;
  const std::string alphabet = std::string("ab,\t \xe9\xff" "1", 8);
  for (int n = 0; n < 40; ++n) {
    std::string line;
    const size_t len = rng() % (n % 4 == 0 ? 48 : 8);
    for (size_t c = 0; c < len; ++c) {
      line += alphabet[rng() % alphabet.size()];
    }
    lines.push_back(line);
  }
  for (int n = 0; n < 150; ++n) {
    const std::string pattern = RandomPattern(rng, 3);
    ParseResult parsed = ParsePattern(pattern);
    ASSERT_TRUE(parsed.ok()) << pattern;
    const Dfa& dfa = Rx(pattern).dfa();
    const Dfa raw = Dfa::FromAst(parsed.node);
    for (const std::string& line : lines) {
      const bool want = DerivativeMatch(parsed.node, line);
      EXPECT_EQ(dfa.AcceptsLine(line), want) << pattern << " on '" << line << "'";
      EXPECT_EQ(raw.AcceptsLine(line), want) << "unminimized " << pattern << " on '" << line
                                             << "'";
    }
  }
}

// Property sweep: for random-ish pattern pairs, algebraic identities hold.
class RegexAlgebra : public ::testing::TestWithParam<std::pair<const char*, const char*>> {};

TEST_P(RegexAlgebra, DeMorganAndLattice) {
  auto [pa, pb] = GetParam();
  Regex a = Rx(pa);
  Regex b = Rx(pb);
  // A ∩ B ⊆ A ⊆ A ∪ B.
  EXPECT_TRUE(a.Intersect(b).IncludedIn(a));
  EXPECT_TRUE(a.IncludedIn(a.Union(b)));
  // De Morgan: ¬(A ∪ B) = ¬A ∩ ¬B.
  EXPECT_TRUE(a.Union(b).Complement().EquivalentTo(a.Complement().Intersect(b.Complement())));
  // Double complement.
  EXPECT_TRUE(a.Complement().Complement().EquivalentTo(a));
  // Inclusion via difference: A ⊆ B iff A ∩ ¬B = ∅.
  EXPECT_EQ(a.IncludedIn(b), a.Intersect(b.Complement()).IsEmptyLanguage());
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, RegexAlgebra,
    ::testing::Values(std::pair<const char*, const char*>{"a*", "a+"},
                      std::pair<const char*, const char*>{"[ab]+", "[bc]+"},
                      std::pair<const char*, const char*>{"(ab|c)*", "a.*"},
                      std::pair<const char*, const char*>{"0x[0-9a-f]+", "0x.*"},
                      std::pair<const char*, const char*>{"\\d{1,3}", "\\d+"},
                      std::pair<const char*, const char*>{".*", "()"},
                      std::pair<const char*, const char*>{"/?([^/]*/)*[^/]+", "/.*"}));

}  // namespace
}  // namespace sash::regex
