// Differential / property-style testing across engines:
//  (1) On fully concrete scripts, the symbolic engine and the concrete
//      interpreter must agree on variable values and exit status.
//  (2) GlobLanguage (the regular-language view of globs) must agree with
//      GlobMatch (the operational matcher) on generated inputs.
//  (3) DFA matching and Brzozowski-derivative matching must agree.
#include <gtest/gtest.h>

#include "derivative.h"
#include "fs/glob.h"
#include "monitor/interp.h"
#include "regex/glob.h"
#include "regex/parser.h"
#include "symex/engine.h"
#include "syntax/parser.h"

namespace sash {
namespace {

// ---------- (1) symbolic vs concrete on deterministic scripts ----------

struct VarExpectation {
  const char* script;
  const char* var;
};

class SymbolicConcreteAgreement : public ::testing::TestWithParam<VarExpectation> {};

TEST_P(SymbolicConcreteAgreement, VariableValuesAgree) {
  const VarExpectation& param = GetParam();
  syntax::ParseOutput parsed = syntax::Parse(param.script);
  ASSERT_TRUE(parsed.ok()) << param.script;

  // Concrete run.
  fs::FileSystem concrete_fs;
  monitor::Interpreter interp(&concrete_fs, monitor::InterpOptions{});
  interp.Run(parsed.program);
  auto it = interp.vars().find(param.var);
  ASSERT_NE(it, interp.vars().end()) << param.var;
  const std::string& concrete_value = it->second;

  // Symbolic run: deterministic scripts must yield one state with the
  // variable bound to exactly the concrete value.
  DiagnosticSink sink;
  symex::EngineOptions options;
  options.report_unset_vars = false;
  symex::Engine engine(options, &sink);
  std::vector<symex::State> finals = engine.Run(parsed.program);
  ASSERT_EQ(finals.size(), 1u) << param.script;
  const symex::SymValue* value = finals[0].Lookup(param.var);
  ASSERT_NE(value, nullptr) << param.var;
  EXPECT_TRUE(value->MustEqual(concrete_value))
      << param.script << "\nsymbolic: " << value->Describe() << "\nconcrete: '"
      << concrete_value << "'";
}

INSTANTIATE_TEST_SUITE_P(
    Scripts, SymbolicConcreteAgreement,
    ::testing::Values(
        VarExpectation{"x=hello\ny=\"$x world\"\n", "y"},
        VarExpectation{"x=$(echo one two)\n", "x"},
        VarExpectation{"n=6\nm=$((n * 7 + 1))\n", "m"},
        VarExpectation{"p=/a/b/c.txt\nd=${p%/*}\n", "d"},
        VarExpectation{"p=/a/b/c.txt\nb=${p##*/}\n", "b"},
        VarExpectation{"v=${unset_thing:-fallback}\n", "v"},
        VarExpectation{"x=abc\nl=${#x}\n", "l"},
        VarExpectation{"if [ 1 -lt 2 ]; then r=yes; else r=no; fi\n", "r"},
        VarExpectation{"r=start\nfor i in a b; do r=\"$r-$i\"; done\n", "r"},
        VarExpectation{"case blue in b*) m=matched ;; *) m=other ;; esac\n", "m"},
        VarExpectation{"f() { g=\"fn-$1\"; }\nf arg\n", "g"},
        VarExpectation{"x=$(basename /usr/local/bin)\n", "x"},
        VarExpectation{"true && a=t || a=f\n", "a"},
        VarExpectation{"false && a=t || a=f\n", "a"}));

TEST(SymbolicConcreteAgreementExit, ExitCodesAgree) {
  const char* scripts[] = {
      "true\n", "false\n", "exit 4\n", "[ a = a ]\n", "[ a = b ]\n",
      "if false; then exit 1; fi\n", "mkdir -p /x && touch /x/f\n",
  };
  for (const char* script : scripts) {
    syntax::ParseOutput parsed = syntax::Parse(script);
    ASSERT_TRUE(parsed.ok());
    fs::FileSystem concrete_fs;
    monitor::Interpreter interp(&concrete_fs, monitor::InterpOptions{});
    int concrete_exit = interp.Run(parsed.program).exit_code;
    DiagnosticSink sink;
    symex::EngineOptions options;
    options.report_unset_vars = false;
    symex::Engine engine(options, &sink);
    std::vector<symex::State> finals = engine.Run(parsed.program);
    ASSERT_FALSE(finals.empty()) << script;
    // The symbolic engine starts from an *unknown* environment, so scripts
    // touching the file system may fork; the concrete run (in an empty FS)
    // must correspond to at least one explored path.
    bool some_path_matches = false;
    for (const symex::State& s : finals) {
      if (!s.exit.known || s.exit.code == concrete_exit) {
        some_path_matches = true;
      }
    }
    EXPECT_TRUE(some_path_matches) << script << " concrete exit " << concrete_exit;
    if (finals.size() == 1) {
      ASSERT_TRUE(finals[0].exit.known) << script;
      EXPECT_EQ(finals[0].exit.code, concrete_exit) << script;
    }
  }
}

// ---------- (2) GlobLanguage vs GlobMatch ----------

TEST(GlobProperty, LanguageAgreesWithMatcher) {
  const char* patterns[] = {"*",     "*.txt", "a?c",     "[a-c]x",  "[!a-c]x",
                            "*Linux", "a*b*c", "exact",  "[0-9]*",  "\\*lit"};
  const char* inputs[] = {"",        "a",     "abc",     "a.txt",  "x.txt.bak",
                          "bx",      "dx",    "Arch Linux", "Debian", "a123b99c",
                          "exact",   "0zz",   "*lit",    "axc",    "aXc"};
  for (const char* pattern : patterns) {
    regex::Regex lang = regex::GlobLanguage(pattern);
    for (const char* input : inputs) {
      EXPECT_EQ(lang.Matches(input), fs::GlobMatch(pattern, input))
          << "pattern '" << pattern << "' input '" << input << "'";
    }
  }
}

TEST(GlobProperty, LanguageSamplesMatchOperationally) {
  const char* patterns[] = {"*.log", "[a-c][0-9]", "pre*post", "?x?"};
  for (const char* pattern : patterns) {
    regex::Regex lang = regex::GlobLanguage(pattern);
    for (const std::string& sample : lang.Samples(8)) {
      EXPECT_TRUE(fs::GlobMatch(pattern, sample))
          << "pattern '" << pattern << "' generated non-matching sample '" << sample << "'";
    }
  }
}

// ---------- (3) DFA vs derivatives over a pattern family ----------

class RegexEngineAgreement : public ::testing::TestWithParam<const char*> {};

TEST_P(RegexEngineAgreement, DfaAndDerivativesAgree) {
  const char* pattern = GetParam();
  regex::ParseResult parsed = regex::ParsePattern(pattern);
  ASSERT_TRUE(parsed.ok()) << pattern;
  std::optional<regex::Regex> compiled = regex::Regex::FromPattern(pattern);
  ASSERT_TRUE(compiled.has_value());
  // Inputs: language samples (members) plus mutations of them (mixed).
  std::vector<std::string> inputs = compiled->Samples(6);
  std::vector<std::string> mutated;
  for (const std::string& s : inputs) {
    mutated.push_back(s + "x");
    mutated.push_back("x" + s);
    if (!s.empty()) {
      mutated.push_back(s.substr(1));
    }
  }
  inputs.insert(inputs.end(), mutated.begin(), mutated.end());
  inputs.push_back("");
  inputs.push_back("unrelated input");
  for (const std::string& input : inputs) {
    EXPECT_EQ(compiled->Matches(input), regex::DerivativeMatch(parsed.node, input))
        << "pattern '" << pattern << "' input '" << input << "'";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Family, RegexEngineAgreement,
    ::testing::Values("a*b+c?", "(ab|cd)*", "[0-9a-f]{2,4}", "/?([^/]*/)*[^/]+",
                      "(Distributor ID|Description):\\t.*", "\\d+(\\.\\d+)?",
                      "x(y(z)?)*", "(a|b)(a|b)(a|b)", "0x[0-9a-f]+.*", "[^ ]+ [^ ]+"));

// ---------- interpreter glob expansion vs fs::ExpandGlob ----------

TEST(GlobProperty, InterpreterExpansionMatchesDirect) {
  fs::FileSystem fs;
  fs.MakeDir("/w", false);
  fs.WriteFile("/w/a.txt", "");
  fs.WriteFile("/w/b.txt", "");
  fs.WriteFile("/w/c.md", "");
  syntax::ParseOutput parsed = syntax::Parse("echo /w/*.txt\n");
  monitor::Interpreter interp(&fs, monitor::InterpOptions{});
  monitor::InterpResult run = interp.Run(parsed.program);
  std::vector<std::string> direct = fs::ExpandGlob(fs, "/w/*.txt", "/");
  std::string expected;
  for (size_t i = 0; i < direct.size(); ++i) {
    expected += (i > 0 ? " " : "") + direct[i];
  }
  expected += "\n";
  EXPECT_EQ(run.out, expected);
}

}  // namespace
}  // namespace sash
