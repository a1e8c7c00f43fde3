#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <random>

#include "exec/commands.h"
#include "regex/regex.h"
#include "util/strings.h"

namespace sash::exec {
namespace {

RunResult Sh(fs::FileSystem& fs, std::vector<std::string> argv, std::string stdin_data = "") {
  return RunCommand(fs, argv, stdin_data);
}

TEST(Exec, EchoAndUnknown) {
  fs::FileSystem fs;
  RunResult r = Sh(fs, {"echo", "hello", "world"});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.out, "hello world\n");
  EXPECT_EQ(Sh(fs, {"echo", "-n", "x"}).out, "x");
  RunResult unknown = Sh(fs, {"frobnicate"});
  EXPECT_EQ(unknown.exit_code, 127);
  EXPECT_NE(unknown.err.find("command not found"), std::string::npos);
}

TEST(Exec, CatFilesAndStdin) {
  fs::FileSystem fs;
  fs.WriteFile("/a", "one\n");
  fs.WriteFile("/b", "two\n");
  EXPECT_EQ(Sh(fs, {"cat", "/a", "/b"}).out, "one\ntwo\n");
  EXPECT_EQ(Sh(fs, {"cat"}, "from stdin\n").out, "from stdin\n");
  RunResult missing = Sh(fs, {"cat", "/nope"});
  EXPECT_EQ(missing.exit_code, 1);
  EXPECT_FALSE(missing.err.empty());
  fs.MakeDir("/d", false);
  EXPECT_EQ(Sh(fs, {"cat", "/d"}).exit_code, 1);
  EXPECT_EQ(Sh(fs, {"cat", "-n", "/a"}).out.find("     1\tone\n"), 0u);
}

TEST(Exec, RmSemanticsMatchSpec) {
  fs::FileSystem fs;
  fs.MakeDir("/d/sub", true);
  fs.WriteFile("/f", "x");
  EXPECT_EQ(Sh(fs, {"rm", "/d"}).exit_code, 1);       // Dir without -r.
  EXPECT_EQ(Sh(fs, {"rm", "-r", "/d"}).exit_code, 0);
  EXPECT_FALSE(fs.Exists("/d"));
  EXPECT_EQ(Sh(fs, {"rm", "/f"}).exit_code, 0);
  EXPECT_EQ(Sh(fs, {"rm", "/gone"}).exit_code, 1);
  EXPECT_EQ(Sh(fs, {"rm", "-f", "/gone"}).exit_code, 0);
  // Guardrail: invalid flags are rejected by the spec parser.
  EXPECT_EQ(Sh(fs, {"rm", "-z", "/f"}).exit_code, 2);
  EXPECT_EQ(Sh(fs, {"rm"}).exit_code, 2);  // Missing operand.
}

TEST(Exec, MkdirTouchRmdir) {
  fs::FileSystem fs;
  EXPECT_EQ(Sh(fs, {"mkdir", "/a"}).exit_code, 0);
  EXPECT_EQ(Sh(fs, {"mkdir", "/a"}).exit_code, 1);
  EXPECT_EQ(Sh(fs, {"mkdir", "-p", "/a/b/c"}).exit_code, 0);
  EXPECT_TRUE(fs.IsDir("/a/b/c"));
  EXPECT_EQ(Sh(fs, {"touch", "/a/f"}).exit_code, 0);
  EXPECT_TRUE(fs.IsFile("/a/f"));
  EXPECT_EQ(Sh(fs, {"touch", "-c", "/a/missing"}).exit_code, 0);
  EXPECT_FALSE(fs.Exists("/a/missing"));
  EXPECT_EQ(Sh(fs, {"rmdir", "/a/b/c"}).exit_code, 0);
  EXPECT_EQ(Sh(fs, {"rmdir", "/a"}).exit_code, 1);  // Not empty.
}

TEST(Exec, CpAndMv) {
  fs::FileSystem fs;
  fs.WriteFile("/src", "data");
  fs.MakeDir("/dir", false);
  EXPECT_EQ(Sh(fs, {"cp", "/src", "/copy"}).exit_code, 0);
  EXPECT_EQ(*fs.ReadFile("/copy"), "data");
  EXPECT_EQ(Sh(fs, {"cp", "/src", "/dir"}).exit_code, 0);
  EXPECT_TRUE(fs.IsFile("/dir/src"));
  fs.MakeDir("/tree/x", true);
  EXPECT_EQ(Sh(fs, {"cp", "/tree", "/tree2"}).exit_code, 1);  // No -r.
  EXPECT_EQ(Sh(fs, {"cp", "-r", "/tree", "/tree2"}).exit_code, 0);
  EXPECT_TRUE(fs.IsDir("/tree2/x"));
  EXPECT_EQ(Sh(fs, {"mv", "/copy", "/moved"}).exit_code, 0);
  EXPECT_FALSE(fs.Exists("/copy"));
  EXPECT_TRUE(fs.IsFile("/moved"));
  // Directory cannot clobber a file.
  EXPECT_EQ(Sh(fs, {"mv", "/tree", "/moved"}).exit_code, 1);
}

TEST(Exec, GrepModes) {
  fs::FileSystem fs;
  std::string input = "alpha\nbeta\nALPHA\ngamma alpha\n";
  EXPECT_EQ(Sh(fs, {"grep", "alpha"}, input).out, "alpha\ngamma alpha\n");
  EXPECT_EQ(Sh(fs, {"grep", "^alpha"}, input).out, "alpha\n");
  EXPECT_EQ(Sh(fs, {"grep", "-i", "^alpha"}, input).out, "alpha\nALPHA\n");
  EXPECT_EQ(Sh(fs, {"grep", "-v", "alpha"}, input).out, "beta\nALPHA\n");
  EXPECT_EQ(Sh(fs, {"grep", "-c", "alpha"}, input).out, "2\n");
  RunResult quiet = Sh(fs, {"grep", "-q", "beta"}, input);
  EXPECT_EQ(quiet.exit_code, 0);
  EXPECT_TRUE(quiet.out.empty());
  EXPECT_EQ(Sh(fs, {"grep", "-q", "zeta"}, input).exit_code, 1);
  EXPECT_EQ(Sh(fs, {"grep", "-n", "beta"}, input).out, "2:beta\n");
  // -o extracts each match on its own line (the §4 hex extraction).
  EXPECT_EQ(Sh(fs, {"grep", "-oE", "[0-9a-f]+", }, "zz1a2bzz 3c\n").out, "1a2b\n3c\n");
  // Fixed strings.
  EXPECT_EQ(Sh(fs, {"grep", "-F", "a.b"}, "a.b\naxb\n").out, "a.b\n");
}

TEST(Exec, SedForms) {
  fs::FileSystem fs;
  EXPECT_EQ(Sh(fs, {"sed", "s/^/0x/"}, "1a\n2b\n").out, "0x1a\n0x2b\n");
  EXPECT_EQ(Sh(fs, {"sed", "s/$/;/"}, "x\n").out, "x;\n");
  EXPECT_EQ(Sh(fs, {"sed", "s/a+/A/"}, "baaad\n").out, "bAd\n");
  EXPECT_EQ(Sh(fs, {"sed", "s/o/0/g"}, "foo boo\n").out, "f00 b00\n");
  EXPECT_EQ(Sh(fs, {"sed", "s/o/0/"}, "foo\n").out, "f0o\n");
  EXPECT_EQ(Sh(fs, {"sed", "q"}, "x\n").exit_code, 2);  // Unsupported form.
}

TEST(Exec, CutFieldsAndChars) {
  fs::FileSystem fs;
  EXPECT_EQ(Sh(fs, {"cut", "-f2"}, "a\tb\tc\n").out, "b\n");
  EXPECT_EQ(Sh(fs, {"cut", "-f1,3"}, "a\tb\tc\n").out, "a\tc\n");
  EXPECT_EQ(Sh(fs, {"cut", "-d:", "-f1"}, "root:x:0\n").out, "root\n");
  EXPECT_EQ(Sh(fs, {"cut", "-f2"}, "no-delim\n").out, "no-delim\n");
  EXPECT_EQ(Sh(fs, {"cut", "-c2-3"}, "abcdef\n").out, "bc\n");
}

TEST(Exec, SortVariants) {
  fs::FileSystem fs;
  EXPECT_EQ(Sh(fs, {"sort"}, "b\na\nc\n").out, "a\nb\nc\n");
  EXPECT_EQ(Sh(fs, {"sort", "-r"}, "a\nb\n").out, "b\na\n");
  EXPECT_EQ(Sh(fs, {"sort", "-n"}, "10\n9\n2\n").out, "2\n9\n10\n");
  EXPECT_EQ(Sh(fs, {"sort", "-u"}, "b\na\nb\n").out, "a\nb\n");
}

// `sort -n` reads the POSIX [blanks][-]digits[.digits] prefix of each line
// (no exponent, hex, '+' or inf; no number reads as 0); `-g` reads the line
// with strtod and puts NaN before every number. Ties keep input order.
TEST(Exec, SortNumericKeys) {
  fs::FileSystem fs;
  EXPECT_EQ(Sh(fs, {"sort", "-n"}, "1e3\n2\n").out, "1e3\n2\n");
  EXPECT_EQ(Sh(fs, {"sort", "-n"}, "0x10\n1\n").out, "0x10\n1\n");
  EXPECT_EQ(Sh(fs, {"sort", "-n"}, "+5\n1\n").out, "+5\n1\n");
  EXPECT_EQ(Sh(fs, {"sort", "-n"}, "inf\n1\n").out, "inf\n1\n");
  EXPECT_EQ(Sh(fs, {"sort", "-n"}, "nan\n2\n-1\n").out, "-1\nnan\n2\n");
  EXPECT_EQ(Sh(fs, {"sort", "-n"}, "abc\n-1\n1\n").out, "-1\nabc\n1\n");
  EXPECT_EQ(Sh(fs, {"sort", "-n"}, "1.5\n1.25\n-0.5\n.75\n").out, "-0.5\n.75\n1.25\n1.5\n");
  EXPECT_EQ(Sh(fs, {"sort", "-n"}, " 3\n\t2\n1\n").out, "1\n\t2\n 3\n");
  EXPECT_EQ(Sh(fs, {"sort", "-n"}, "-\n.\n-1\n").out, "-1\n-\n.\n");
  EXPECT_EQ(Sh(fs, {"sort", "-n"}, "1 b\n0\n1 a\n").out, "0\n1 b\n1 a\n");
  EXPECT_EQ(Sh(fs, {"sort", "-n"}, "-0\n0\n-0\n").out, "-0\n0\n-0\n");
  EXPECT_EQ(Sh(fs, {"sort", "-g"}, "2\nnan\n1\n-inf\nNAN\n").out, "nan\nNAN\n-inf\n1\n2\n");
  EXPECT_EQ(Sh(fs, {"sort", "-g"}, "1e3\n2\n0x10\n").out, "2\n0x10\n1e3\n");
  EXPECT_EQ(Sh(fs, {"sort", "-g"}, "x\n-1\ny\n").out, "-1\nx\ny\n");
  // -r reverses the sorted order, ties included; -u drops repeated lines.
  EXPECT_EQ(Sh(fs, {"sort", "-n", "-r"}, "1 a\n2\n1 b\n").out, "2\n1 b\n1 a\n");
  EXPECT_EQ(Sh(fs, {"sort", "-n", "-u"}, "2\n1\n2\n01\n").out, "1\n01\n2\n");
}

// ---------- streamed filters vs. the line-vector semantics ----------
//
// Reference implementations of the filters as SplitLines-then-per-line work,
// which the streamed (view-based) commands must reproduce byte for byte.
namespace ref {

std::string JoinLines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) {
    out += l + "\n";
  }
  return out;
}

std::vector<std::pair<size_t, size_t>> FindMatches(const regex::Regex& body,
                                                   const std::string& line) {
  std::vector<std::pair<size_t, size_t>> out;
  size_t pos = 0;
  while (pos <= line.size()) {
    size_t best = std::string::npos;
    for (size_t end = line.size() + 1; end-- > pos;) {
      if (body.Matches(std::string_view(line).substr(pos, end - pos))) {
        best = end;
        break;
      }
    }
    if (best != std::string::npos && best > pos) {
      out.emplace_back(pos, best);
      pos = best;
    } else {
      ++pos;
    }
  }
  return out;
}

RunResult Grep(const std::string& input, std::string pattern, const std::string& flags) {
  auto has = [&](char f) { return flags.find(f) != std::string::npos; };
  if (has('i')) {
    pattern = AsciiLower(pattern);
  }
  std::optional<regex::Regex> body;
  std::optional<regex::Regex> search;
  if (has('F')) {
    body = regex::Regex::Literal(pattern);
    search = regex::Regex::AnyLine().Concat(*body).Concat(regex::Regex::AnyLine());
  } else {
    body = regex::Regex::FromPattern(pattern);
    search = regex::Regex::FromSearchPattern(pattern);
  }
  RunResult r;
  int matches = 0;
  int lineno = 0;
  for (const std::string& raw : SplitLines(input)) {
    ++lineno;
    std::string line = has('i') ? AsciiLower(raw) : raw;
    if (search->Matches(line) == has('v')) {
      continue;
    }
    ++matches;
    if (has('q') || has('c')) {
      continue;
    }
    std::string prefix = has('n') ? std::to_string(lineno) + ":" : "";
    if (has('o') && !has('v')) {
      for (const auto& [begin, end] : FindMatches(*body, line)) {
        r.out += prefix + raw.substr(begin, end - begin) + "\n";
      }
      continue;
    }
    r.out += prefix + raw + "\n";
  }
  if (has('c')) {
    r.out = std::to_string(matches) + "\n";
  }
  r.exit_code = matches > 0 ? 0 : 1;
  return r;
}

bool InRanges(const std::string& list, int v) {
  for (const std::string& piece : Split(list, ',')) {
    size_t dash = piece.find('-');
    int lo = std::atoi(piece.c_str());
    int hi = lo;
    if (dash != std::string::npos) {
      lo = dash == 0 ? 1 : std::atoi(piece.substr(0, dash).c_str());
      hi = dash + 1 >= piece.size() ? 1 << 30 : std::atoi(piece.substr(dash + 1).c_str());
    }
    if (v >= lo && v <= hi) {
      return true;
    }
  }
  return false;
}

std::string CutFields(const std::string& input, char delim, const std::string& list) {
  std::string out;
  for (const std::string& line : SplitLines(input)) {
    if (line.find(delim) == std::string::npos) {
      out += line + "\n";
      continue;
    }
    std::vector<std::string> cols = Split(line, delim);
    std::vector<std::string> picked;
    for (size_t i = 0; i < cols.size(); ++i) {
      if (InRanges(list, static_cast<int>(i) + 1)) {
        picked.push_back(cols[i]);
      }
    }
    out += Join(picked, std::string(1, delim)) + "\n";
  }
  return out;
}

std::string CutChars(const std::string& input, const std::string& list) {
  std::string out;
  for (const std::string& line : SplitLines(input)) {
    for (size_t i = 0; i < line.size(); ++i) {
      if (InRanges(list, static_cast<int>(i) + 1)) {
        out += line[i];
      }
    }
    out += "\n";
  }
  return out;
}

std::string Uniq(const std::string& input, bool count, bool repeated_only) {
  std::string out;
  std::vector<std::string> lines = SplitLines(input);
  for (size_t i = 0; i < lines.size();) {
    size_t j = i;
    while (j < lines.size() && lines[j] == lines[i]) {
      ++j;
    }
    int n = static_cast<int>(j - i);
    if (!repeated_only || n >= 2) {
      if (count) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%7d ", n);
        out += buf;
      }
      out += lines[i] + "\n";
    }
    i = j;
  }
  return out;
}

std::string Sort(const std::string& input, bool reverse, bool unique) {
  std::vector<std::string> lines = SplitLines(input);
  std::stable_sort(lines.begin(), lines.end());
  if (reverse) {
    std::reverse(lines.begin(), lines.end());
  }
  if (unique) {
    lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
  }
  return JoinLines(lines);
}

}  // namespace ref

// Seeded inputs over a small alphabet, so lines repeat, lack the delimiter,
// are blank or run together; plus the hand-picked edge cases.
std::vector<std::string> StreamInputs() {
  std::vector<std::string> inputs = {"",        "\n",         "\n\n",      "a\n\n\nb\n",
                                     "x,y",     "no-delim\n", "a,b\nc",   ",\n,,\n",
                                     "A,1\nA,1", "1a\n1a\n2b",
                                     std::string("b\0\na\xff\na\nb\n", 10)};
  std::mt19937 rng(20261018);
  const std::string alphabet = "aAb1,,..  ";
  for (int n = 0; n < 40; ++n) {
    std::string input;
    int lines = static_cast<int>(rng() % 30);
    for (int l = 0; l < lines; ++l) {
      if (rng() % 3 == 0) {
        input += "a,a.A,a,";  // Ties on sort's 8-byte key prefix.
      }
      int len = static_cast<int>(rng() % 8);
      for (int c = 0; c < len; ++c) {
        input += alphabet[rng() % alphabet.size()];
      }
      if (l + 1 < lines || rng() % 2 == 0) {
        input += '\n';
      }
    }
    inputs.push_back(input);
  }
  return inputs;
}

TEST(ExecStreaming, GrepMatchesLineVectorSemantics) {
  fs::FileSystem fs;
  const std::vector<std::string> flag_sets = {"",   "v",  "i",  "o",  "n",   "c",  "q",
                                              "F",  "in", "on", "iv", "vc",  "io", "Fn"};
  for (const std::string& input : StreamInputs()) {
    for (const char* pattern : {"a", "A1", "b+", "^a", "1$", "a.", ","}) {
      for (const std::string& flags : flag_sets) {
        std::vector<std::string> argv = {"grep"};
        if (!flags.empty()) {
          argv.push_back("-" + flags);
        }
        argv.push_back(pattern);
        RunResult want = ref::Grep(input, pattern, flags);
        RunResult got = Sh(fs, argv, input);
        EXPECT_EQ(got.out, want.out) << "grep -" << flags << " '" << pattern << "' on '" << input
                                     << "'";
        EXPECT_EQ(got.exit_code, want.exit_code) << "grep -" << flags << " " << pattern;
      }
    }
  }
}

// Lines that reach the search language's accept-everything state early
// (the match sits at the front of a long line), late, or never, and long
// runs between exit bytes: grep decides each line as the whole-line
// reference does.
TEST(ExecStreaming, GrepDecidesLinesThatMatchEarly) {
  fs::FileSystem fs;
  const std::string tail(120, 'z');
  const std::string input = "alpha" + tail + "\n" + tail + "\n" + tail + "Alpha\n" +
                            "a" + tail + "lpha\n" + ",ok" + tail + ",ok\n" + "ALPHA,ok\n" +
                            tail + ",ok\n" + "x,o\n" + "\xff" "alpha\xfe\r\n\n" + "a.b" + tail;
  for (const char* pattern : {"alpha", ",ok$", "^alpha", "a.b", "z"}) {
    for (const std::string flags : {"", "v", "c", "i", "F", "iv", "Fc", "Fi"}) {
      std::vector<std::string> argv = {"grep"};
      if (!flags.empty()) {
        argv.push_back("-" + flags);
      }
      argv.push_back(pattern);
      RunResult want = ref::Grep(input, pattern, flags);
      RunResult got = Sh(fs, argv, input);
      EXPECT_EQ(got.out, want.out) << "grep -" << flags << " '" << pattern << "'";
      EXPECT_EQ(got.exit_code, want.exit_code) << "grep -" << flags << " '" << pattern << "'";
    }
  }
  EXPECT_EQ(Sh(fs, {"grep", "-c", "alpha"}, input).out, "2\n");
  EXPECT_EQ(Sh(fs, {"grep", "-ic", "alpha"}, input).out, "4\n");
}

TEST(ExecStreaming, CutMatchesLineVectorSemantics) {
  fs::FileSystem fs;
  for (const std::string& input : StreamInputs()) {
    for (const std::string list : {"1", "2", "1,3", "2-", "-2", "1-2,4", "3-", "2,1", "5"}) {
      EXPECT_EQ(Sh(fs, {"cut", "-d,", "-f" + list}, input).out, ref::CutFields(input, ',', list))
          << "cut -d, -f" << list << " on '" << input << "'";
      EXPECT_EQ(Sh(fs, {"cut", "-d.", "-f" + list}, input).out, ref::CutFields(input, '.', list))
          << "cut -d. -f" << list << " on '" << input << "'";
      EXPECT_EQ(Sh(fs, {"cut", "-c" + list}, input).out, ref::CutChars(input, list))
          << "cut -c" << list << " on '" << input << "'";
    }
  }
}

TEST(ExecStreaming, UniqAndSortMatchLineVectorSemantics) {
  fs::FileSystem fs;
  for (const std::string& input : StreamInputs()) {
    EXPECT_EQ(Sh(fs, {"uniq"}, input).out, ref::Uniq(input, false, false)) << input;
    EXPECT_EQ(Sh(fs, {"uniq", "-c"}, input).out, ref::Uniq(input, true, false)) << input;
    EXPECT_EQ(Sh(fs, {"uniq", "-d"}, input).out, ref::Uniq(input, false, true)) << input;
    EXPECT_EQ(Sh(fs, {"uniq", "-c", "-d"}, input).out, ref::Uniq(input, true, true)) << input;
    EXPECT_EQ(Sh(fs, {"sort"}, input).out, ref::Sort(input, false, false)) << input;
    EXPECT_EQ(Sh(fs, {"sort", "-r"}, input).out, ref::Sort(input, true, false)) << input;
    EXPECT_EQ(Sh(fs, {"sort", "-u"}, input).out, ref::Sort(input, false, true)) << input;
    EXPECT_EQ(Sh(fs, {"sort", "-r", "-u"}, input).out, ref::Sort(input, true, true)) << input;
  }
}

TEST(ExecStreaming, FileOperandsSplitEachFileOnItsOwn) {
  // An unterminated last line of one file does not run into the next file.
  fs::FileSystem fs;
  fs.WriteFile("/a", "x,1\ny,2");
  fs.WriteFile("/b", "z,3\n");
  EXPECT_EQ(Sh(fs, {"cut", "-d,", "-f2", "/a", "/b"}).out, "1\n2\n3\n");
  EXPECT_EQ(Sh(fs, {"grep", "-n", ",", "/a", "/b"}).out, "1:x,1\n2:y,2\n3:z,3\n");
  RunResult missing = Sh(fs, {"sort", "/b", "/nope", "/a"});
  EXPECT_EQ(missing.out, "x,1\ny,2\nz,3\n");
  EXPECT_EQ(missing.exit_code, 1);
  EXPECT_FALSE(missing.err.empty());
  // cat joins files first, so cat -n numbers the joined lines.
  EXPECT_EQ(Sh(fs, {"cat", "-n", "/a", "/b"}).out, "     1\tx,1\n     2\ty,2z,3\n");
}

TEST(Exec, HeadTailUniqWcTr) {
  fs::FileSystem fs;
  EXPECT_EQ(Sh(fs, {"head", "-n2"}, "1\n2\n3\n").out, "1\n2\n");
  EXPECT_EQ(Sh(fs, {"tail", "-n2"}, "1\n2\n3\n").out, "2\n3\n");
  EXPECT_EQ(Sh(fs, {"uniq"}, "a\na\nb\na\n").out, "a\nb\na\n");
  EXPECT_EQ(Sh(fs, {"uniq", "-d"}, "a\na\nb\n").out, "a\n");
  RunResult counted = Sh(fs, {"uniq", "-c"}, "a\na\nb\n");
  EXPECT_NE(counted.out.find("2 a"), std::string::npos);
  EXPECT_EQ(Sh(fs, {"wc", "-l"}, "x\ny\n").out, " 2\n");
  EXPECT_EQ(Sh(fs, {"tr", "a-z", "A-Z"}, "abc\n").out, "ABC\n");
  EXPECT_EQ(Sh(fs, {"tr", "-d", "0-9"}, "a1b2\n").out, "ab\n");
}

TEST(Exec, LsbReleaseMatchesPaperShape) {
  fs::FileSystem fs;
  RunResult r = Sh(fs, {"lsb_release", "-a"});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("Distributor ID:\tDebian"), std::string::npos);
  EXPECT_NE(r.out.find("Description:\t"), std::string::npos);
  EXPECT_NE(r.out.find("Codename:\tbookworm"), std::string::npos);
  // Every line matches the paper's §3 line type (checked in stream tests).
  RunResult shortform = Sh(fs, {"lsb_release", "-sc"});
  EXPECT_EQ(shortform.out, "bookworm\n");
}

TEST(Exec, CurlUsesWorldMap) {
  fs::FileSystem fs;
  World world;
  world.remote["http://sw.com/up.sh"] = "#!/bin/sh\necho installing\n";
  RunResult ok = RunCommand(fs, {"curl", "-s", "http://sw.com/up.sh"}, "", world);
  EXPECT_EQ(ok.exit_code, 0);
  EXPECT_NE(ok.out.find("installing"), std::string::npos);
  RunResult to_file = RunCommand(fs, {"curl", "-o", "/tmp.sh", "http://sw.com/up.sh"}, "", world);
  EXPECT_EQ(to_file.exit_code, 0);
  EXPECT_TRUE(fs.IsFile("/tmp.sh"));
  RunResult missing = RunCommand(fs, {"curl", "http://nowhere.example"}, "", world);
  EXPECT_EQ(missing.exit_code, 6);
}

TEST(Exec, PipelineComposesManually) {
  // lsb_release -a | grep '^Desc' | cut -f 2 — Fig. 5's *corrected* pipeline
  // run concretely end to end.
  fs::FileSystem fs;
  RunResult lsb = Sh(fs, {"lsb_release", "-a"});
  RunResult grep = Sh(fs, {"grep", "^Desc"}, lsb.out);
  RunResult cut = Sh(fs, {"cut", "-f2"}, grep.out);
  EXPECT_EQ(cut.out, "Debian GNU/Linux 12 (bookworm)\n");
  // And the buggy '^desc' filter yields nothing — the Fig. 5 behavior.
  RunResult bad = Sh(fs, {"grep", "^desc"}, lsb.out);
  EXPECT_TRUE(bad.out.empty());
  EXPECT_EQ(bad.exit_code, 1);
}

TEST(Exec, CommandInventory) {
  EXPECT_TRUE(HasCommand("rm"));
  EXPECT_TRUE(HasCommand("lsb_release"));
  EXPECT_FALSE(HasCommand("systemctl"));
  EXPECT_GE(CommandNames().size(), 25u);
}

}  // namespace
}  // namespace sash::exec
