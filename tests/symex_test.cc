#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "fs/path.h"
#include "symex/engine.h"
#include "syntax/parser.h"

namespace {

// Counts the process's heap allocations while armed, for the fork-cost
// test below. Every replaced new has its matching delete replaced too, so
// sanitizer runtimes see consistent pairs.
std::atomic<bool> g_count_allocations{false};
std::atomic<int64_t> g_allocations{0};

void* CountedAlloc(std::size_t size, std::size_t align = 0) noexcept {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  size = size == 0 ? 1 : size;
  if (align == 0) {
    return std::malloc(size);
  }
  return std::aligned_alloc(align, (size + align - 1) / align * align);
}

void* CountedAllocOrThrow(std::size_t size, std::size_t align = 0) {
  if (void* p = CountedAlloc(size, align)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

// All out of line, so the compiler never pairs an inlined malloc() or
// free() with a new- or delete-expression (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) { return CountedAllocOrThrow(size); }
[[gnu::noinline]] void* operator new[](std::size_t size) { return CountedAllocOrThrow(size); }
[[gnu::noinline]] void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
[[gnu::noinline]] void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
[[gnu::noinline]] void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAllocOrThrow(size, static_cast<std::size_t>(align));
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace sash::symex {
namespace {

struct RunResult {
  std::vector<State> finals;
  std::vector<Diagnostic> diagnostics;
  EngineStats stats;
};

RunResult RunScript(std::string_view src, EngineOptions options = {}) {
  syntax::ParseOutput parsed = syntax::Parse(src);
  EXPECT_TRUE(parsed.ok()) << src;
  DiagnosticSink sink;
  Engine engine(options, &sink);
  RunResult out;
  out.finals = engine.Run(parsed.program);
  out.diagnostics = sink.TakeAll();
  out.stats = engine.stats();
  return out;
}

bool HasCode(const RunResult& r, std::string_view code, Severity min_sev = Severity::kWarning) {
  for (const Diagnostic& d : r.diagnostics) {
    if (d.code == code && d.severity >= min_sev) {
      return true;
    }
  }
  return false;
}

const Diagnostic* FindCode(const RunResult& r, std::string_view code) {
  for (const Diagnostic& d : r.diagnostics) {
    if (d.code == code) {
      return &d;
    }
  }
  return nullptr;
}

// ---------- SymValue unit behavior ----------

TEST(SymValue, ConcreteBasics) {
  SymValue v = SymValue::Concrete("abc");
  EXPECT_TRUE(v.is_concrete());
  EXPECT_TRUE(v.MustEqual("abc"));
  EXPECT_FALSE(v.CanEqual("abd"));
  EXPECT_FALSE(v.CanBeEmpty());
  EXPECT_EQ(v.Describe(), "'abc'");
  EXPECT_EQ(v.Witness().value_or("?"), "abc");
}

TEST(SymValue, UnionAndRestrict) {
  SymValue v = SymValue::Concrete("").UnionWith(SymValue::Concrete("/x"));
  EXPECT_FALSE(v.is_concrete());
  EXPECT_TRUE(v.CanBeEmpty());
  EXPECT_FALSE(v.MustBeEmpty());
  EXPECT_TRUE(v.CanEqual("/x"));
  SymValue nonempty = v.RestrictNonEmpty();
  EXPECT_FALSE(nonempty.CanBeEmpty());
  EXPECT_TRUE(nonempty.MustEqual("/x"));
  SymValue nothing = nonempty.RestrictNotEqual("/x");
  EXPECT_TRUE(nothing.IsNothing());
}

TEST(SymValue, AppendBuildsLanguages) {
  SymValue dir = SymValue::AbsolutePath();
  SymValue target = dir.Append(SymValue::Concrete("/*"));
  EXPECT_TRUE(target.CanEqual("/a/*"));
  EXPECT_TRUE(target.CanEqual("//*"));
  EXPECT_FALSE(target.CanEqual("no-slash"));
}

// ---------- basic execution semantics ----------

TEST(Engine, AssignmentAndExpansion) {
  RunResult r = RunScript("x=hello\ny=\"$x world\"\n");
  ASSERT_EQ(r.finals.size(), 1u);
  const SymValue* y = r.finals[0].Lookup("y");
  ASSERT_NE(y, nullptr);
  EXPECT_TRUE(y->MustEqual("hello world"));
}

TEST(Engine, SingleQuotesSuppressExpansion) {
  RunResult r = RunScript("x=1\ny='$x'\n");
  EXPECT_TRUE(r.finals[0].Lookup("y")->MustEqual("$x"));
}

TEST(Engine, ParameterDefaults) {
  RunResult r = RunScript("a=${unset_var:-fallback}\nb=set\nc=${b:-nope}\nd=${empty:=assigned}\n");
  const State& st = r.finals[0];
  EXPECT_TRUE(st.Lookup("a")->MustEqual("fallback"));
  EXPECT_TRUE(st.Lookup("c")->MustEqual("set"));
  EXPECT_TRUE(st.Lookup("d")->MustEqual("assigned"));
  EXPECT_TRUE(st.Lookup("empty")->MustEqual("assigned"));
}

TEST(Engine, SuffixPrefixRemovalConcrete) {
  RunResult r = RunScript("p=/home/user/script.sh\n"
                    "dir=${p%/*}\nbase=${p##*/}\next=${p#*.}\nlarge=${p%%/*}\n");
  const State& st = r.finals[0];
  EXPECT_TRUE(st.Lookup("dir")->MustEqual("/home/user"));
  EXPECT_TRUE(st.Lookup("base")->MustEqual("script.sh"));
  EXPECT_TRUE(st.Lookup("ext")->MustEqual("sh"));
  EXPECT_TRUE(st.Lookup("large")->MustEqual(""));
}

TEST(Engine, ArithmeticEvaluation) {
  RunResult r = RunScript("n=4\nm=$((n * (n + 1) / 2))\n");
  EXPECT_TRUE(r.finals[0].Lookup("m")->MustEqual("10"));
}

TEST(Engine, CommandSubstitutionCapturesEcho) {
  RunResult r = RunScript("x=$(echo hi)\n");
  EXPECT_TRUE(r.finals[0].Lookup("x")->MustEqual("hi"));
}

TEST(Engine, ExitStatusBranching) {
  RunResult r = RunScript("if true; then x=t; else x=f; fi\n");
  ASSERT_EQ(r.finals.size(), 1u);
  EXPECT_TRUE(r.finals[0].Lookup("x")->MustEqual("t"));
  RunResult r2 = RunScript("if false; then x=t; else x=f; fi\n");
  EXPECT_TRUE(r2.finals[0].Lookup("x")->MustEqual("f"));
}

TEST(Engine, AndOrShortCircuit) {
  RunResult r = RunScript("true && x=ran\n");
  EXPECT_TRUE(r.finals[0].Lookup("x")->MustEqual("ran"));
  RunResult r2 = RunScript("false && x=ran\n");
  EXPECT_EQ(r2.finals[0].Lookup("x"), nullptr);
  RunResult r3 = RunScript("false || x=rescue\n");
  EXPECT_TRUE(r3.finals[0].Lookup("x")->MustEqual("rescue"));
}

TEST(Engine, UnknownExitForks) {
  // `grep` has unknown exit (0/1 on a file, 2 when missing): both branches
  // of the `if` are explored (the else side may appear once per grep case).
  RunResult r = RunScript("if grep -q pat file; then x=yes; else x=no; fi\n");
  ASSERT_GE(r.finals.size(), 2u);
  bool saw_yes = false;
  bool saw_no = false;
  for (const State& s : r.finals) {
    if (s.Lookup("x")->MustEqual("yes")) {
      saw_yes = true;
    }
    if (s.Lookup("x")->MustEqual("no")) {
      saw_no = true;
    }
  }
  EXPECT_TRUE(saw_yes);
  EXPECT_TRUE(saw_no);
  EXPECT_GE(r.stats.forks, 1);
}

TEST(Engine, SubshellIsolatesVariables) {
  RunResult r = RunScript("x=outer\n( x=inner; cd /tmp )\ny=$x\n");
  EXPECT_TRUE(r.finals[0].Lookup("y")->MustEqual("outer"));
}

TEST(Engine, ExitTerminates) {
  RunResult r = RunScript("x=1\nexit 3\nx=2\n");
  ASSERT_EQ(r.finals.size(), 1u);
  EXPECT_TRUE(r.finals[0].terminated);
  EXPECT_EQ(r.finals[0].exit.code, 3);
  EXPECT_TRUE(r.finals[0].Lookup("x")->MustEqual("1"));
}

TEST(Engine, FunctionsBindPositionals) {
  RunResult r = RunScript("greet() { msg=\"hello $1\"; }\ngreet world\n");
  EXPECT_TRUE(r.finals[0].Lookup("msg")->MustEqual("hello world"));
}

TEST(Engine, ForLoopIteratesConcreteList) {
  RunResult r = RunScript("acc=\nfor i in a b c; do acc=\"$acc$i\"; done\n");
  EXPECT_TRUE(r.finals[0].Lookup("acc")->MustEqual("abc"));
}

TEST(Engine, CaseMatchesConcretely) {
  RunResult r = RunScript("x=hello\ncase $x in h*) m=yes ;; *) m=no ;; esac\n");
  ASSERT_EQ(r.finals.size(), 1u);
  EXPECT_TRUE(r.finals[0].Lookup("m")->MustEqual("yes"));
}

TEST(Engine, CaseForksOnSymbolicSubject) {
  RunResult r = RunScript("case $1 in a) m=a ;; b) m=b ;; esac\n");
  // Three outcomes: matched a, matched b, fell through.
  EXPECT_GE(r.finals.size(), 3u);
}

TEST(Engine, TestStringEqualityRefinesVariable) {
  RunResult r = RunScript("if [ \"$1\" = \"yes\" ]; then m=eq; else m=ne; fi\n");
  ASSERT_EQ(r.finals.size(), 2u);
  for (const State& s : r.finals) {
    if (s.Lookup("m")->MustEqual("eq")) {
      EXPECT_TRUE(s.Lookup("1")->MustEqual("yes"));
    } else {
      EXPECT_FALSE(s.Lookup("1")->CanEqual("yes"));
    }
  }
}

TEST(Engine, TestEmptinessRefines) {
  RunResult r = RunScript("if [ -z \"$1\" ]; then m=empty; else m=full; fi\n");
  ASSERT_EQ(r.finals.size(), 2u);
  for (const State& s : r.finals) {
    if (s.Lookup("m")->MustEqual("empty")) {
      EXPECT_TRUE(s.Lookup("1")->MustBeEmpty());
    } else {
      EXPECT_FALSE(s.Lookup("1")->CanBeEmpty());
    }
  }
}

TEST(Engine, TestFileOpsRecordFsAssumptions) {
  RunResult r = RunScript("if [ -d \"$1\" ]; then rmdir \"$1\"; fi\n");
  // In the then-branch the engine assumed $1 is a directory, so rmdir's
  // IsDir case matched definitely; no always-fails diagnostics.
  EXPECT_FALSE(HasCode(r, kCodeAlwaysFails));
}

TEST(Engine, NumericComparison) {
  RunResult r = RunScript("n=5\nif [ $n -gt 3 ]; then m=big; else m=small; fi\n");
  ASSERT_EQ(r.finals.size(), 1u);
  EXPECT_TRUE(r.finals[0].Lookup("m")->MustEqual("big"));
}

TEST(Engine, NegatedTest) {
  RunResult r = RunScript("x=a\nif [ ! \"$x\" = \"b\" ]; then m=ok; fi\n");
  EXPECT_TRUE(r.finals[0].Lookup("m")->MustEqual("ok"));
}

TEST(Engine, WhileLoopWidens) {
  RunResult r = RunScript("i=0\nwhile [ $i -lt 100 ]; do i=$((i + 1)); done\ndone_var=1\n");
  // The loop cannot be fully unrolled; widening kicks in and execution
  // continues past it.
  ASSERT_FALSE(r.finals.empty());
  EXPECT_NE(r.finals[0].Lookup("done_var"), nullptr);
}

TEST(Engine, UnsetVariableWarned) {
  RunResult r = RunScript("echo $never_assigned\n");
  EXPECT_TRUE(HasCode(r, kCodeUnsetVar));
  RunResult r2 = RunScript("echo $HOME\n");  // Preseeded environment: no warning.
  EXPECT_FALSE(HasCode(r2, kCodeUnsetVar));
}

TEST(Engine, ParamErrorOperator) {
  // ${x:?} on a never-set variable always aborts.
  RunResult r = RunScript("echo \"${never_set:?fatal}\"\n");
  EXPECT_TRUE(HasCode(r, kCodeParamError, Severity::kError));
  ASSERT_EQ(r.finals.size(), 1u);
  EXPECT_TRUE(r.finals[0].terminated);
  // On a maybe-set positional it may abort; the surviving path refines.
  RunResult r2 = RunScript("v=\"${1:?usage}\"\nuse=$v\n");
  ASSERT_FALSE(r2.finals.empty());
  EXPECT_FALSE(r2.finals[0].Lookup("v")->CanBeEmpty());
}

TEST(Engine, MissingOperandAfterEmptyExpansionDrop) {
  // rm $empty -> all operands dropped -> invalid invocation caught.
  RunResult r = RunScript("empty=\nrm $empty\n");
  EXPECT_TRUE(HasCode(r, kCodeEmptyExpansionArg));
}

// ---------- the paper's figures ----------

constexpr const char* kFig1 =
    "STEAMROOT=\"$(cd \"${0%/*}\" && echo $PWD)\"\n"
    "rm -fr \"$STEAMROOT\"/*\n";

TEST(Paper, Fig1SteamBugDetected) {
  RunResult r = RunScript(kFig1);
  const Diagnostic* d = FindCode(r, kCodeDeleteRoot);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->range.begin.line, 2);  // The rm line, not the assignment.
  // The witness names the dangerous expansion and the culprit variable.
  std::string all = d->ToString();
  EXPECT_NE(all.find("/*"), std::string::npos);
  EXPECT_NE(all.find("STEAMROOT"), std::string::npos);
}

constexpr const char* kFig2 =
    "STEAMROOT=\"$(cd \"${0%/*}\" && echo $PWD)\"\n"
    "if [ \"$(realpath \"$STEAMROOT/\")\" != \"/\" ]; then\n"
    "rm -fr \"$STEAMROOT\"/*\n"
    "else\n"
    "echo \"Bad script path: $0\"; exit 1\n"
    "fi\n";

TEST(Paper, Fig2SafeFixProvedSafe) {
  RunResult r = RunScript(kFig2);
  // "The rm -fr line will *never* delete from the root — guaranteed across
  // all executions and environments."
  EXPECT_FALSE(HasCode(r, kCodeDeleteRoot, Severity::kNote)) << [&] {
    std::string s;
    for (const Diagnostic& d : r.diagnostics) {
      s += d.ToString() + "\n";
    }
    return s;
  }();
}

constexpr const char* kFig3 =
    "STEAMROOT=\"$(cd \"${0%/*}\" && echo $PWD)\"\n"
    "if [ \"$(realpath \"$STEAMROOT/\")\" = \"/\" ]; then\n"
    "rm -fr \"$STEAMROOT\"/*\n"
    "else\n"
    "echo \"Bad script path: $0\"; exit 1\n"
    "fi\n";

TEST(Paper, Fig3UnsafeFixAlwaysDangerous) {
  RunResult r = RunScript(kFig3);
  const Diagnostic* d = FindCode(r, kCodeDeleteRoot);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  // The one-character difference turns "may" into "always": the guarded
  // branch *only* runs with a root STEAMROOT.
  EXPECT_NE(d->message.find("always"), std::string::npos);
}

TEST(Paper, SplitVariableVariantStillDetected) {
  // §3: robust to semantically-equivalent syntactic variants.
  RunResult r = RunScript("STEAMROOT=\"$(cd \"${0%/*}\" && echo $PWD)\"\n"
                    "c=\"/*\"\n"
                    "rm -fr $STEAMROOT$c\n");
  EXPECT_TRUE(HasCode(r, kCodeDeleteRoot, Severity::kError));
}

TEST(Paper, RmThenCatAlwaysFails) {
  // §4: the file-system composition bug.
  RunResult r = RunScript("rm -r \"$1\"\ncat \"$1/config\"\n");
  const Diagnostic* d = FindCode(r, kCodeAlwaysFails);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->range.begin.line, 2);
}

TEST(Paper, RecreateBetweenRmAndCatIsFine) {
  RunResult r = RunScript("rm -r \"$1\"\nmkdir \"$1\"\ntouch \"$1/config\"\ncat \"$1/config\"\n");
  EXPECT_FALSE(HasCode(r, kCodeAlwaysFails));
}

TEST(Paper, ShellCheckStyleFixVerified) {
  // The ${STEAMROOT:?} fix ShellCheck suggests: the surviving path is safe
  // *because* the parameter error kills the empty case... but ':?' only
  // guards empty, not '/', so a root STEAMROOT still bites.
  RunResult r = RunScript("STEAMROOT=\"$(cd \"${0%/*}\" && echo $PWD)\"\n"
                    "rm -fr \"${STEAMROOT:?}\"/*\n");
  // The may-delete-root warning must survive (the fix is incomplete).
  EXPECT_TRUE(HasCode(r, kCodeDeleteRoot));
}

TEST(Engine, SafeScriptsStayQuiet) {
  const char* scripts[] = {
      "mkdir -p /tmp/work && touch /tmp/work/f && rm -r /tmp/work\n",
      "for f in a b c; do echo \"$f\"; done\n",
      "x=$(basename /usr/local/bin)\necho $x\n",
      "if [ -f /etc/passwd ]; then cat /etc/passwd; fi\n",
  };
  for (const char* s : scripts) {
    RunResult r = RunScript(s);
    EXPECT_FALSE(HasCode(r, kCodeDeleteRoot)) << s;
    EXPECT_FALSE(HasCode(r, kCodeAlwaysFails)) << s;
  }
}

TEST(Engine, StatsTrackForksAndStates) {
  RunResult r = RunScript(kFig1);
  EXPECT_GE(r.stats.forks, 1);
  EXPECT_GE(r.stats.commands_executed, 3);
  EXPECT_GE(r.stats.final_states, 1);
}

TEST(Engine, StateCapRespected) {
  EngineOptions opts;
  opts.max_states = 4;
  // Many independent unknown branches would explode states.
  std::string src;
  for (int i = 0; i < 8; ++i) {
    src += "if grep -q x f" + std::to_string(i) + "; then a" + std::to_string(i) + "=1; fi\n";
  }
  RunResult r = RunScript(src, opts);
  EXPECT_LE(static_cast<int>(r.finals.size()), 4);
  EXPECT_GT(r.stats.states_dropped, 0);
}

TEST(Engine, IdenticalStatesMerged) {
  // Both branches converge to identical states; the merge prunes them
  // ("pruning via concrete state whenever possible").
  RunResult r = RunScript("if read line; then y=1; else y=1; fi\nz=2\n");
  EXPECT_EQ(r.finals.size(), 1u);
  EXPECT_GE(r.stats.states_merged, 1);
}

TEST(Engine, HeredocAndRedirectsDoNotCrash) {
  RunResult r = RunScript("cat <<EOF >out.txt\nhello\nEOF\n");
  ASSERT_FALSE(r.finals.empty());
}

TEST(Engine, InputRedirectFromDeletedFileAlwaysFails) {
  RunResult r = RunScript("rm -f /tmp/data\nsort </tmp/data\n");
  EXPECT_TRUE(HasCode(r, kCodeAlwaysFails, Severity::kError));
}

// Parameterized sweep: every dangerous spelling of the root-delete is caught.
class DangerousSpellings : public ::testing::TestWithParam<const char*> {};

TEST_P(DangerousSpellings, Caught) {
  RunResult r = RunScript(GetParam());
  EXPECT_TRUE(HasCode(r, kCodeDeleteRoot, Severity::kError)) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DangerousSpellings,
    ::testing::Values("rm -rf /\n", "rm -fr /*\n", "rm -r //\n",
                      "d=\nrm -rf \"$d\"/*\n", "d=\nrm -rf $d/\n",
                      "a=/\nb='*'\nrm -rf $a$b\n",
                      "root=/\nrm -fr ${root}\n",
                      "x=${undefined_var}\nrm -rf \"$x\"/*\n",
                      // Root reached through `.`/`..` or a relative glob.
                      "rm -rf /tmp/../*\n", "rm -rf /./*\n",
                      "D=$(dirname \"$0\"); rm -rf \"$D/../\"*\n",
                      "cd / && rm -rf *\n"));

// And safe spellings are not flagged.
class SafeSpellings : public ::testing::TestWithParam<const char*> {};

TEST_P(SafeSpellings, NotFlagged) {
  RunResult r = RunScript(GetParam());
  EXPECT_FALSE(HasCode(r, kCodeDeleteRoot)) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SafeSpellings,
    ::testing::Values("rm -rf /tmp/scratch\n", "rm -rf /home/user/.cache/*\n",
                      "d=/var/tmp\nrm -rf \"$d\"/*\n",
                      "d=$(echo /opt/app)\nrm -rf \"$d\"/*\n",
                      "if [ -n \"$1\" ]; then rm -rf \"/scratch/$1\"; fi\n",
                      "rm -rf /tmp/a/../*\n", "cd /tmp && rm -rf *\n",
                      "rm -rf \"$HOME/..\"/x\n", "rm -rf \"/scratch/$1/*\"\n"));

// The danger language against lexical normalization, over every absolute
// path of up to four components drawn from {"", ".", "..", "a"}: each glob
// of them that normalizes to "/*" is in it (soundness), and without ".." it
// holds only paths that normalize to "/" or "/*" (the over-approximation is
// confined to ".." spellings).
TEST(Engine, DangerLanguageCoversRootSpellings) {
  const char* const kParts[] = {"", ".", "..", "a"};
  std::vector<std::string> dirs{""};
  for (size_t i = 0; i < dirs.size(); ++i) {
    if (std::count(dirs[i].begin(), dirs[i].end(), '/') < 4) {
      for (const char* part : kParts) {
        dirs.push_back(dirs[i] + "/" + part);
      }
    }
  }
  int root_globs = 0;
  for (const std::string& dir : dirs) {
    const std::string glob = dir + "/*";
    if (fs::NormalizePath(glob) == "/*") {
      ++root_globs;
      EXPECT_TRUE(DangerLanguage().Matches(glob)) << glob;
    }
    for (const std::string& path : {dir, dir + "/", glob}) {
      if (path.find("..") == std::string::npos && DangerLanguage().Matches(path)) {
        const std::string norm = fs::NormalizePath(path);
        EXPECT_TRUE(norm == "/" || norm == "/*") << path;
      }
    }
  }
  EXPECT_GT(root_globs, 50);
}

// Verify's effects policy rides on the spec effects: a path that must lie
// under a protected prefix is an error, one that may is a warning (left to
// the runtime guard), and the empty policy checks nothing.
TEST(Engine, PolicyMustAndMayViolations) {
  EngineOptions policed;
  policed.policy.no_write = {"/home/user/mine"};
  const char* kMust = "t=$(echo /home/user/mine)\nrm -rf \"$t\"\n";
  RunResult must_run = RunScript(kMust, policed);
  const Diagnostic* must = FindCode(must_run, kCodePolicy);
  ASSERT_NE(must, nullptr);
  EXPECT_EQ(must->severity, Severity::kError);
  EXPECT_NE(must->message.find("/home/user/mine"), std::string::npos);
  EXPECT_FALSE(HasCode(RunScript(kMust), kCodePolicy, Severity::kNote));

  EngineOptions unknown_x = policed;
  unknown_x.var_patterns = {{"X", ".*"}};
  RunResult may = RunScript("rm -rf \"$X/y\"\n", unknown_x);
  ASSERT_NE(FindCode(may, kCodePolicy), nullptr);
  EXPECT_EQ(FindCode(may, kCodePolicy)->severity, Severity::kWarning);

  // Reads, redirections, and paths outside the prefix.
  EngineOptions reads;
  reads.policy.no_read = {"/home/user/mine"};
  EXPECT_TRUE(HasCode(RunScript("cat /home/user/mine/key\n", reads), kCodePolicy,
                      Severity::kError));
  EXPECT_TRUE(HasCode(RunScript("echo x > ~/mine/f\n", policed), kCodePolicy, Severity::kError));
  EXPECT_FALSE(HasCode(RunScript("rm -rf /home/user/minecraft\necho x > /tmp/f\n", policed),
                       kCodePolicy, Severity::kNote));
}

// ---------- forking by sharing ----------

using specs::PathState;
using symfs::PathKey;

// The same populated state every call: bindings (one maybe-unset), a
// function, a note and file-system facts.
State PopulatedState() {
  State st;
  st.Bind("a", SymValue::Concrete("1"));
  st.Bind("b", SymValue::UnknownLine());
  st.BindMaybeUnset("1", SymValue::UnknownLine());
  st.functions.write()[util::Symbol::Intern("f")] = nullptr;
  st.Assume("first note");
  st.sfs.Assume(PathKey::Concrete("/d/a"), PathState::kIsFile);
  st.sfs.Assume(PathKey::Concrete("/gone"), PathState::kAbsent);
  return st;
}

const std::vector<PathKey>& StateProbes() {
  static const std::vector<PathKey> probes = {
      PathKey::Concrete("/d"), PathKey::Concrete("/d/a"), PathKey::Concrete("/gone/x"),
      PathKey::Concrete("/new"), PathKey::VarRooted("$1", "")};
  return probes;
}

// Everything observable about a state, rendered for comparison.
struct Observed {
  std::string vars;
  std::string facts;
  std::vector<PathState> answers;
  std::vector<std::string> notes;
  std::vector<std::string> functions;
  uint64_t digest = 0;

  bool operator==(const Observed&) const = default;
};

Observed Observe(const State& st) {
  Observed out;
  for (const auto& [name, value] : st.vars()) {
    out.vars += name.str() + "=" + value.Describe() + (st.MaybeUnset(name) ? "?" : "") + ";";
  }
  out.facts = st.sfs.ToString();
  for (const PathKey& key : StateProbes()) {
    out.answers.push_back(st.sfs.Query(key));
  }
  out.notes = st.assumptions();
  for (const auto& [name, body] : *st.functions) {
    out.functions.push_back(name.str());
  }
  out.digest = st.Digest();
  return out;
}

TEST(StateSharing, CopiesAreIsolatedFromEveryWriter) {
  using Writer = std::function<void(State*)>;
  std::vector<std::pair<std::string, Writer>> writers = {
      {"Bind new", [](State* s) { s->Bind("c", SymValue::Concrete("x")); }},
      {"Bind existing", [](State* s) { s->Bind("a", SymValue::Concrete("2")); }},
      {"Bind over maybe-unset", [](State* s) { s->Bind("1", SymValue::Concrete("p")); }},
      {"BindMaybeUnset", [](State* s) { s->BindMaybeUnset("a", SymValue::UnknownLine()); }},
      {"Unset", [](State* s) { s->Unset("b"); }},
      {"Unset maybe-unset", [](State* s) { s->Unset("1"); }},
      {"Unset missing", [](State* s) { s->Unset("never_bound"); }},
      {"functions insert",
       [](State* s) { s->functions.write()[util::Symbol::Intern("g")] = nullptr; }},
      {"note", [](State* s) { s->Assume("second note"); }},
      {"RestoreScopeFrom",
       [](State* s) {
         State other;
         other.Bind("z", SymValue::Concrete("zz"));
         other.functions.write()[util::Symbol::Intern("h")] = nullptr;
         s->RestoreScopeFrom(other);
       }},
      {"ApplyDeleteTree", [](State* s) { s->sfs.ApplyDeleteTree(PathKey::Concrete("/d")); }},
      {"ApplyDeleteFile", [](State* s) { s->sfs.ApplyDeleteFile(PathKey::Concrete("/d/a")); }},
      {"ApplyCreateFile",
       [](State* s) { s->sfs.ApplyCreateFile(PathKey::Concrete("/new/f")); }},
      {"ApplyCreateDir",
       [](State* s) { s->sfs.ApplyCreateDir(PathKey::VarRooted("$1", "")); }},
  };
  for (PathState state : {PathState::kAny, PathState::kExists, PathState::kIsFile,
                          PathState::kIsDir, PathState::kAbsent}) {
    for (const PathKey& key : StateProbes()) {
      writers.emplace_back(
          "sfs.Assume(" + key.ToString() + ", " + std::string(specs::PathStateName(state)) + ")",
          [key, state](State* s) { s->sfs.Assume(key, state); });
    }
  }

  for (const auto& [name, write] : writers) {
    SCOPED_TRACE(name);
    State original = PopulatedState();
    const Observed before = Observe(original);

    State copy = original;
    write(&copy);
    EXPECT_EQ(Observe(original), before);

    // The same write on a state that was never copied.
    State fresh = PopulatedState();
    write(&fresh);
    EXPECT_EQ(Observe(copy), Observe(fresh));

    // And the other direction: writing the original leaves a copy alone.
    State copy2 = original;
    write(&original);
    EXPECT_EQ(Observe(copy2), before);
    EXPECT_EQ(Observe(original), Observe(fresh));
  }
}

State SizedState(int bindings, int facts, int functions, int notes) {
  State st;
  for (int i = 0; i < bindings; ++i) {
    st.Bind("v" + std::to_string(i), SymValue::Concrete("value number " + std::to_string(i)));
  }
  for (int i = 0; i < facts; ++i) {
    st.sfs.Assume(PathKey::Concrete("/f" + std::to_string(i)), PathState::kIsFile);
  }
  for (int i = 0; i < functions; ++i) {
    st.functions.write()[util::Symbol::Intern("fn" + std::to_string(i))] = nullptr;
  }
  for (int i = 0; i < notes; ++i) {
    st.Assume("assumed step " + std::to_string(i) + " of a long path condition succeeded");
  }
  return st;
}

int64_t AllocationsToCopy(const State& st) {
  std::vector<State> sink;
  sink.reserve(1);
  g_allocations.store(0);
  g_count_allocations.store(true);
  sink.push_back(st);
  g_count_allocations.store(false);
  return g_allocations.load();
}

TEST(StateSharing, ForkCostDoesNotGrowWithStateSize) {
  const State small = SizedState(1, 1, 1, 1);
  const State large = SizedState(64, 64, 3, 5);
  ASSERT_EQ(large.vars().size(), 64u);
  ASSERT_GE(large.sfs.FactCount(), 64u);
  ASSERT_EQ(large.assumptions().size(), 5u);
  EXPECT_EQ(AllocationsToCopy(large), AllocationsToCopy(small));

  // The counter is live: a heap allocation inside the window is seen.
  g_allocations.store(0);
  g_count_allocations.store(true);
  void* p = ::operator new(16);
  g_count_allocations.store(false);
  ::operator delete(p);
  EXPECT_EQ(g_allocations.load(), 1);
}

TEST(StateSharing, NotesStopAtTheCap) {
  State st;
  for (size_t i = 0; i < State::kMaxNotes + 3; ++i) {
    EXPECT_EQ(st.WantsNote(), i < State::kMaxNotes);
    st.Assume("note " + std::to_string(i));
  }
  ASSERT_EQ(st.assumptions().size(), State::kMaxNotes);
  EXPECT_EQ(st.assumptions().back(), "note " + std::to_string(State::kMaxNotes - 1));
}

// A finding renders at most four path-condition notes, and the elision
// marker exactly when a fifth assumption was recorded.
TEST(Engine, PathConditionNotesBoundary) {
  for (int assumptions : {4, 5, 7}) {
    SCOPED_TRACE(assumptions);
    std::string src = "read a b c d e f g\n";
    for (int i = 0; i < assumptions; ++i) {
      src += "[ -n \"$" + std::string(1, static_cast<char>('a' + i)) + "\" ]\n";
    }
    src += "rm -rf /\n";
    RunResult r = RunScript(src);
    const Diagnostic* d = FindCode(r, kCodeDeleteRoot);
    ASSERT_NE(d, nullptr);
    int conditions = 0;
    int elided = 0;
    for (const DiagnosticNote& note : d->notes) {
      conditions += note.message.rfind("path condition: ", 0) == 0 ? 1 : 0;
      elided += note.message == "(further assumptions elided)" ? 1 : 0;
    }
    EXPECT_EQ(conditions, 4);
    EXPECT_EQ(elided, assumptions > 4 ? 1 : 0);
    for (const State& st : r.finals) {
      EXPECT_LE(st.assumptions().size(), State::kMaxNotes);
    }
  }
}

}  // namespace
}  // namespace sash::symex
