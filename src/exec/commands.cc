#include "exec/commands.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <set>
#include <string_view>

#include "fs/glob.h"
#include "fs/path.h"
#include "regex/regex.h"
#include "specs/library.h"
#include "util/strings.h"

namespace sash::exec {

namespace {

using specs::Invocation;
using specs::SpecLibrary;

RunResult Fail(int code, std::string err) {
  RunResult r;
  r.exit_code = code;
  r.err = std::move(err);
  return r;
}

// Calls `fn` with each line of `data` as a view into it, split exactly as
// SplitLines splits: a final '\n' ends the last line rather than starting an
// empty one, and an unterminated last line still counts.
template <typename Fn>
void ForEachLine(std::string_view data, Fn&& fn) {
  size_t start = 0;
  while (start < data.size()) {
    size_t pos = data.find('\n', start);
    if (pos == std::string_view::npos) {
      fn(data.substr(start));
      return;
    }
    fn(data.substr(start, pos - start));
    start = pos + 1;
  }
}

// The input of a line filter: its file operands (each split into lines on
// its own, in order) or, when it names none, stdin. Lines are views into
// these buffers, so they live as long as the LineInput.
struct LineInput {
  std::vector<std::string> files;         // Contents of the readable file operands.
  std::vector<std::string_view> buffers;  // What ForEach splits, in order.

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (std::string_view buffer : buffers) {
      ForEachLine(buffer, fn);
    }
  }

  std::vector<std::string_view> Lines() const {
    std::vector<std::string_view> lines;
    ForEach([&](std::string_view line) { lines.push_back(line); });
    return lines;
  }
};

LineInput ReadInput(fs::FileSystem& fs, const Invocation& inv, std::string_view stdin_data,
                    size_t first_operand, int* exit_code, std::string* err) {
  LineInput input;
  if (first_operand >= inv.operands.size()) {
    input.buffers.push_back(stdin_data);
    return input;
  }
  for (size_t i = first_operand; i < inv.operands.size(); ++i) {
    Result<std::string> content = fs.ReadFile(inv.operands[i]);
    if (!content.ok()) {
      *exit_code = inv.command == "grep" ? 2 : 1;
      *err += inv.command + ": " + content.status().message() + "\n";
      continue;
    }
    input.files.push_back(std::move(*content));
  }
  // Views are taken once `files` stops growing: a reallocation would move
  // short (inline-stored) strings.
  input.buffers.assign(input.files.begin(), input.files.end());
  return input;
}

void AppendLine(std::string* out, std::string_view line) {
  out->append(line);
  out->push_back('\n');
}

void AppendLineNumber(std::string* out, int lineno) {
  char buf[16];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), lineno);
  out->append(buf, end);
  out->push_back(':');
}

// Leftmost-longest scan of `body` matches inside `line` using the DFA.
std::vector<std::pair<size_t, size_t>> FindMatches(const regex::Regex& body,
                                                   std::string_view line) {
  std::vector<std::pair<size_t, size_t>> out;
  const regex::Dfa& dfa = body.dfa();
  size_t pos = 0;
  while (pos <= line.size()) {
    int state = dfa.StartState();
    size_t best = std::string::npos;
    for (size_t i = pos; i <= line.size(); ++i) {
      if (dfa.IsAccepting(state)) {
        best = i;
      }
      if (i == line.size() || dfa.IsDeadState(state)) {
        break;
      }
      state = dfa.Step(state, static_cast<unsigned char>(line[i]));
    }
    // Re-check acceptance after consuming the final character.
    if (best == std::string::npos && dfa.IsAccepting(state)) {
      best = line.size();
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

// ---------------- individual commands ----------------

RunResult CmdEcho(const Invocation& inv) {
  RunResult r;
  r.out = Join(inv.operands, " ");
  if (!inv.HasFlag('n')) {
    r.out += '\n';
  }
  return r;
}

RunResult CmdCat(fs::FileSystem& fs, const Invocation& inv, std::string_view stdin_data) {
  RunResult r;
  if (inv.operands.empty()) {
    r.out.assign(stdin_data);
  } else {
    for (const std::string& path : inv.operands) {
      // Read first, as open(2) would: a readable file costs one file-system
      // operation (and one trace entry), not a stat and then a read.
      Result<std::string> content = fs.ReadFile(path);
      if (!content.ok()) {
        r.exit_code = 1;
        r.err += content.code() == Errc::kIsDir ? "cat: " + path + ": Is a directory\n"
                                                : "cat: " + content.status().message() + "\n";
        continue;
      }
      if (r.out.empty()) {
        r.out = std::move(*content);
      } else {
        r.out += *content;
      }
    }
  }
  if (inv.HasFlag('n')) {
    std::string numbered;
    int n = 1;
    ForEachLine(r.out, [&](std::string_view line) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%6d\t", n++);
      numbered += buf;
      AppendLine(&numbered, line);
    });
    r.out = std::move(numbered);
  }
  return r;
}

RunResult CmdRm(fs::FileSystem& fs, const Invocation& inv) {
  RunResult r;
  const bool recursive = inv.HasFlag('r') || inv.HasFlag('R');
  const bool force = inv.HasFlag('f');
  for (const std::string& path : inv.operands) {
    Status s = fs.Remove(path, recursive, force);
    if (!s.ok()) {
      r.exit_code = 1;
      r.err += "rm: cannot remove '" + path + "': " + s.message() + "\n";
    }
  }
  return r;
}

RunResult CmdRmdir(fs::FileSystem& fs, const Invocation& inv) {
  RunResult r;
  for (const std::string& path : inv.operands) {
    Status s = fs.RemoveEmptyDir(path);
    if (!s.ok()) {
      r.exit_code = 1;
      r.err += "rmdir: failed to remove '" + path + "': " + s.message() + "\n";
    }
  }
  return r;
}

RunResult CmdMkdir(fs::FileSystem& fs, const Invocation& inv) {
  RunResult r;
  for (const std::string& path : inv.operands) {
    Status s = fs.MakeDir(path, inv.HasFlag('p'));
    if (!s.ok()) {
      r.exit_code = 1;
      r.err += "mkdir: cannot create directory '" + path + "': " + s.message() + "\n";
    }
  }
  return r;
}

RunResult CmdTouch(fs::FileSystem& fs, const Invocation& inv) {
  RunResult r;
  for (const std::string& path : inv.operands) {
    if (inv.HasFlag('c') && !fs.Exists(path)) {
      continue;
    }
    Status s = fs.Touch(path);
    if (!s.ok()) {
      r.exit_code = 1;
      r.err += "touch: cannot touch '" + path + "': " + s.message() + "\n";
    }
  }
  return r;
}

Status CopyTree(fs::FileSystem& fs, const std::string& src, const std::string& dst) {
  if (fs.IsDir(src)) {
    Status s = fs.MakeDir(dst, /*parents=*/true);
    if (!s.ok()) {
      return s;
    }
    Result<std::vector<std::string>> entries = fs.ListDir(src);
    if (!entries.ok()) {
      return entries.status();
    }
    for (const std::string& name : *entries) {
      Status child = CopyTree(fs, fs::JoinPath(src, name), fs::JoinPath(dst, name));
      if (!child.ok()) {
        return child;
      }
    }
    return Status::Ok();
  }
  Result<std::string> content = fs.ReadFile(src);
  if (!content.ok()) {
    return content.status();
  }
  return fs.WriteFile(dst, *content);
}

RunResult CmdCp(fs::FileSystem& fs, const Invocation& inv) {
  RunResult r;
  const bool recursive = inv.HasFlag('r') || inv.HasFlag('R');
  const std::string& dst = inv.operands.back();
  for (size_t i = 0; i + 1 < inv.operands.size(); ++i) {
    const std::string& src = inv.operands[i];
    if (fs.IsDir(src)) {
      if (!recursive) {
        r.exit_code = 1;
        r.err += "cp: -r not specified; omitting directory '" + src + "'\n";
        continue;
      }
      std::string target = fs.IsDir(dst) ? fs::JoinPath(dst, fs::BaseName(src)) : dst;
      Status s = CopyTree(fs, src, target);
      if (!s.ok()) {
        r.exit_code = 1;
        r.err += "cp: " + s.message() + "\n";
      }
      continue;
    }
    Status s = fs.CopyFile(src, dst);
    if (!s.ok()) {
      r.exit_code = 1;
      r.err += "cp: cannot copy '" + src + "': " + s.message() + "\n";
    }
  }
  return r;
}

RunResult CmdMv(fs::FileSystem& fs, const Invocation& inv) {
  RunResult r;
  const std::string& dst = inv.operands.back();
  for (size_t i = 0; i + 1 < inv.operands.size(); ++i) {
    if (fs.IsDir(inv.operands[i]) && fs.Exists(dst) && !fs.IsDir(dst)) {
      r.exit_code = 1;
      r.err += "mv: cannot overwrite non-directory '" + dst + "' with directory '" +
               inv.operands[i] + "'\n";
      continue;
    }
    Status s = fs.Rename(inv.operands[i], dst);
    if (!s.ok()) {
      r.exit_code = 1;
      r.err += "mv: cannot move '" + inv.operands[i] + "': " + s.message() + "\n";
    }
  }
  return r;
}

RunResult CmdLs(fs::FileSystem& fs, const Invocation& inv) {
  RunResult r;
  std::vector<std::string> targets = inv.operands;
  if (targets.empty()) {
    targets.push_back(fs.cwd());
  }
  auto render = [&](const std::string& name, const std::string& full) {
    if (!inv.HasFlag('l')) {
      r.out += name + "\n";
      return;
    }
    bool is_dir = fs.IsDir(full);
    size_t size = 0;
    if (fs.IsFile(full)) {
      size = fs.ReadFile(full)->size();
    }
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s 1 user user %zu Jul  1 12:00 %s\n",
                  is_dir ? "drwxr-xr-x" : "-rw-r--r--", size, name.c_str());
    r.out += buf;
  };
  for (const std::string& path : targets) {
    if (fs.IsDir(path) && !inv.HasFlag('d')) {
      Result<std::vector<std::string>> entries = fs.ListDir(path);
      if (!entries.ok()) {
        r.exit_code = 2;
        r.err += "ls: cannot access '" + path + "': " + entries.status().message() + "\n";
        continue;
      }
      for (const std::string& name : *entries) {
        if (!inv.HasFlag('a') && !name.empty() && name[0] == '.') {
          continue;
        }
        render(name, fs::JoinPath(path, name));
      }
    } else if (fs.Exists(path)) {
      render(path, path);
    } else {
      r.exit_code = 2;
      r.err += "ls: cannot access '" + path + "': No such file or directory\n";
    }
  }
  return r;
}

RunResult CmdRealpath(fs::FileSystem& fs, const Invocation& inv) {
  RunResult r;
  for (const std::string& path : inv.operands) {
    if (inv.HasFlag('m')) {
      r.out += fs::Absolutize(path, fs.cwd()) + "\n";
      continue;
    }
    Result<std::string> real = fs.RealPath(path);
    if (!real.ok()) {
      r.exit_code = 1;
      r.err += "realpath: " + real.status().message() + "\n";
      continue;
    }
    r.out += *real + "\n";
  }
  return r;
}

RunResult CmdGrep(fs::FileSystem& fs, const Invocation& inv, std::string_view stdin_data) {
  RunResult r;
  std::string pattern;
  size_t first_file = 0;
  if (std::optional<std::string> e = inv.FlagArg('e'); e.has_value()) {
    pattern = *e;
  } else if (!inv.operands.empty()) {
    pattern = inv.operands[0];
    first_file = 1;
  } else {
    return Fail(2, "grep: missing pattern\n");
  }
  const bool ignore_case = inv.HasFlag('i');
  const bool invert = inv.HasFlag('v');
  const bool count_only = inv.HasFlag('q') || inv.HasFlag('c');
  const bool only_matching = inv.HasFlag('o') && !invert;
  const bool number = inv.HasFlag('n');
  if (ignore_case) {
    pattern = AsciiLower(pattern);
  }
  std::optional<regex::Regex> body;
  std::optional<regex::Regex> search;
  if (inv.HasFlag('F')) {
    body = regex::Regex::Literal(pattern);
    search = regex::Regex::AnyLine().Concat(*body).Concat(regex::Regex::AnyLine());
  } else {
    std::string err;
    body = regex::Regex::FromPattern(pattern, &err);
    search = regex::Regex::FromSearchPattern(pattern, &err);
    if (!body.has_value() || !search.has_value()) {
      return Fail(2, "grep: invalid pattern: " + err + "\n");
    }
  }
  LineInput input = ReadInput(fs, inv, stdin_data, first_file, &r.exit_code, &r.err);
  if (r.exit_code == 2) {
    return r;
  }
  const regex::Dfa& dfa = search->dfa();
  int matches = 0;
  int lineno = 0;
  std::string lowered;
  input.ForEach([&](std::string_view raw) {
    ++lineno;
    std::string_view line = raw;
    if (ignore_case) {
      lowered.assign(raw);
      for (char& c : lowered) {
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      }
      line = lowered;
    }
    if (dfa.AcceptsLine(line) == invert) {
      return;
    }
    ++matches;
    if (count_only) {
      return;
    }
    if (only_matching) {
      for (const auto& [begin, end] : FindMatches(*body, line)) {
        if (number) {
          AppendLineNumber(&r.out, lineno);
        }
        AppendLine(&r.out, raw.substr(begin, end - begin));
      }
      return;
    }
    if (number) {
      AppendLineNumber(&r.out, lineno);
    }
    AppendLine(&r.out, raw);
  });
  if (inv.HasFlag('c')) {
    r.out = std::to_string(matches) + "\n";
  }
  if (r.exit_code == 0) {
    r.exit_code = matches > 0 ? 0 : 1;
  }
  return r;
}

RunResult CmdSed(fs::FileSystem& fs, const Invocation& inv, std::string_view stdin_data) {
  RunResult r;
  std::string script;
  size_t first_file = 0;
  if (std::optional<std::string> e = inv.FlagArg('e'); e.has_value()) {
    script = *e;
  } else if (!inv.operands.empty()) {
    script = inv.operands[0];
    first_file = 1;
  } else {
    return Fail(2, "sed: missing script\n");
  }
  // Supported: s/RE/REPL/[g] with '/' delimiter; REPL is literal.
  if (script.size() < 4 || script[0] != 's' || script[1] != '/') {
    return Fail(2, "sed: unsupported script: " + script + "\n");
  }
  std::vector<std::string> parts = Split(script.substr(2), '/');
  if (parts.size() < 2) {
    return Fail(2, "sed: unterminated `s' command\n");
  }
  const std::string& re_text = parts[0];
  const std::string& repl = parts[1];
  const bool global = parts.size() > 2 && parts[2] == "g";
  // Anchor handling: ^ inserts at start, $ appends at end.
  std::optional<regex::Regex> body;
  if (re_text != "^" && re_text != "$") {
    std::string err;
    body = regex::Regex::FromPattern(re_text, &err);
    if (!body.has_value()) {
      return Fail(2, "sed: invalid expression: " + err + "\n");
    }
  }
  LineInput input = ReadInput(fs, inv, stdin_data, first_file, &r.exit_code, &r.err);
  input.ForEach([&](std::string_view line) {
    if (re_text == "^") {
      r.out += repl;
      AppendLine(&r.out, line);
      return;
    }
    if (re_text == "$") {
      r.out.append(line);
      AppendLine(&r.out, repl);
      return;
    }
    size_t consumed = 0;
    for (const auto& [begin, end] : FindMatches(*body, line)) {
      if (begin < consumed) {
        continue;
      }
      r.out.append(line.substr(consumed, begin - consumed));
      r.out += repl;
      consumed = end;
      if (!global) {
        break;
      }
    }
    AppendLine(&r.out, line.substr(consumed));
  });
  return r;
}

// Parses cut-style LIST: "2", "1,3", "2-4", "3-".
std::vector<std::pair<int, int>> ParseRanges(const std::string& list) {
  std::vector<std::pair<int, int>> out;
  for (const std::string& piece : Split(list, ',')) {
    size_t dash = piece.find('-');
    if (dash == std::string::npos) {
      int v = std::atoi(piece.c_str());
      out.emplace_back(v, v);
    } else {
      int lo = dash == 0 ? 1 : std::atoi(piece.substr(0, dash).c_str());
      int hi = dash + 1 >= piece.size() ? 1 << 30 : std::atoi(piece.substr(dash + 1).c_str());
      out.emplace_back(lo, hi);
    }
  }
  return out;
}

bool InRanges(const std::vector<std::pair<int, int>>& ranges, int v) {
  for (const auto& [lo, hi] : ranges) {
    if (v >= lo && v <= hi) {
      return true;
    }
  }
  return false;
}

RunResult CmdCut(fs::FileSystem& fs, const Invocation& inv, std::string_view stdin_data) {
  RunResult r;
  LineInput input = ReadInput(fs, inv, stdin_data, 0, &r.exit_code, &r.err);
  if (std::optional<std::string> fields = inv.FlagArg('f'); fields.has_value()) {
    char delim = '\t';
    if (std::optional<std::string> d = inv.FlagArg('d'); d.has_value() && !d->empty()) {
      delim = (*d)[0];
    }
    const std::vector<std::pair<int, int>> ranges = ParseRanges(*fields);
    int last_wanted = 0;
    for (const auto& [lo, hi] : ranges) {
      last_wanted = std::max(last_wanted, hi);
    }
    input.ForEach([&](std::string_view line) {
      if (line.find(delim) == std::string_view::npos) {
        AppendLine(&r.out, line);  // POSIX: lines without the delimiter pass through.
        return;
      }
      bool first = true;
      size_t start = 0;
      for (int col = 1; col <= last_wanted; ++col) {
        size_t end = line.find(delim, start);
        if (InRanges(ranges, col)) {
          if (!first) {
            r.out += delim;
          }
          r.out.append(line.substr(start, end - start));
          first = false;
        }
        if (end == std::string_view::npos) {
          break;
        }
        start = end + 1;
      }
      r.out += '\n';
    });
    return r;
  }
  if (std::optional<std::string> chars = inv.FlagArg('c'); chars.has_value()) {
    const std::vector<std::pair<int, int>> ranges = ParseRanges(*chars);
    input.ForEach([&](std::string_view line) {
      for (int i = 0; i < static_cast<int>(line.size()); ++i) {
        if (InRanges(ranges, i + 1)) {
          r.out += line[static_cast<size_t>(i)];
        }
      }
      r.out += '\n';
    });
    return r;
  }
  return Fail(2, "cut: you must specify a list of fields or characters\n");
}

// `sort -n` key: the leading [blanks][-]digits[.digits] of the line, as
// POSIX reads it (so "1e3" is 1 and "0x10" is 0); a line with no number
// reads as 0.
double NumericKey(std::string_view line) {
  auto is_digit = [&](size_t i) { return i < line.size() && line[i] >= '0' && line[i] <= '9'; };
  size_t i = 0;
  while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) {
    ++i;
  }
  const size_t begin = i;
  if (i < line.size() && line[i] == '-') {
    ++i;
  }
  const size_t int_begin = i;
  while (is_digit(i)) {
    ++i;
  }
  size_t end = i;
  if (i < line.size() && line[i] == '.' && is_digit(i + 1)) {
    for (end = i + 1; is_digit(end); ++end) {
    }
  } else if (end == int_begin) {
    return 0;
  } else if (end - int_begin <= 15) {  // Exact in a double: skip the float parser.
    int64_t digits = 0;
    for (size_t k = int_begin; k < end; ++k) {
      digits = digits * 10 + (line[k] - '0');
    }
    return begin == int_begin ? static_cast<double>(digits) : -static_cast<double>(digits);
  }
  double value = 0;
  std::from_chars(line.data() + begin, line.data() + end, value);
  return value;
}

RunResult CmdSort(fs::FileSystem& fs, const Invocation& inv, std::string_view stdin_data) {
  RunResult r;
  LineInput input = ReadInput(fs, inv, stdin_data, 0, &r.exit_code, &r.err);
  std::vector<std::string_view> lines = input.Lines();
  if (inv.HasFlag('n') || inv.HasFlag('g')) {
    // Each key is parsed once; ties keep input order. `-g` reads the whole
    // line with strtod and puts NaN before every number, as GNU sort does.
    struct Key {
      double value;
      size_t index;
    };
    const bool general = inv.HasFlag('g');
    std::string scratch;  // strtod needs a terminated copy of the line.
    std::vector<Key> keys;
    keys.reserve(lines.size());
    for (size_t i = 0; i < lines.size(); ++i) {
      double value = 0;
      if (general) {
        scratch.assign(lines[i]);
        value = std::strtod(scratch.c_str(), nullptr);
      } else {
        value = NumericKey(lines[i]);
      }
      keys.push_back({value, i});
    }
    auto numbers = std::stable_partition(keys.begin(), keys.end(),
                                         [](const Key& k) { return std::isnan(k.value); });
    std::stable_sort(numbers, keys.end(),
                     [](const Key& a, const Key& b) { return a.value < b.value; });
    std::vector<std::string_view> sorted;
    sorted.reserve(lines.size());
    for (const Key& k : keys) {
      sorted.push_back(lines[k.index]);
    }
    lines = std::move(sorted);
  } else {
    // Byte order, decided on the first eight bytes (big-endian, so integer
    // order is byte order) and only on a tie by comparing the lines.
    struct Key {
      uint64_t prefix;
      std::string_view line;
    };
    std::vector<Key> keys;
    keys.reserve(lines.size());
    for (std::string_view line : lines) {
      uint64_t prefix = 0;
      for (size_t i = 0; i < 8; ++i) {
        prefix = prefix << 8 | (i < line.size() ? static_cast<unsigned char>(line[i]) : 0);
      }
      keys.push_back({prefix, line});
    }
    std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
      return a.prefix != b.prefix ? a.prefix < b.prefix : a.line < b.line;
    });
    for (size_t i = 0; i < keys.size(); ++i) {
      lines[i] = keys[i].line;
    }
  }
  if (inv.HasFlag('r')) {
    std::reverse(lines.begin(), lines.end());
  }
  if (inv.HasFlag('u')) {
    lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
  }
  for (std::string_view line : lines) {
    AppendLine(&r.out, line);
  }
  return r;
}

RunResult CmdHeadTail(fs::FileSystem& fs, const Invocation& inv, std::string_view stdin_data,
                      bool head) {
  RunResult r;
  LineInput input = ReadInput(fs, inv, stdin_data, 0, &r.exit_code, &r.err);
  size_t n = 10;
  if (std::optional<std::string> arg = inv.FlagArg('n'); arg.has_value()) {
    n = static_cast<size_t>(std::atol(arg->c_str()));
  }
  std::vector<std::string_view> lines = input.Lines();
  const size_t begin = head ? 0 : lines.size() - std::min(n, lines.size());
  const size_t end = head ? std::min(n, lines.size()) : lines.size();
  for (size_t i = begin; i < end; ++i) {
    AppendLine(&r.out, lines[i]);
  }
  return r;
}

// Expands tr sets: "a-z0-9" and escapes \n \t \\.
std::string ExpandTrSet(const std::string& set) {
  std::string out;
  for (size_t i = 0; i < set.size(); ++i) {
    char c = set[i];
    if (c == '\\' && i + 1 < set.size()) {
      char e = set[++i];
      out += e == 'n' ? '\n' : e == 't' ? '\t' : e;
      continue;
    }
    if (i + 2 < set.size() && set[i + 1] == '-' && set[i + 2] >= c) {
      for (char k = c; k <= set[i + 2]; ++k) {
        out += k;
      }
      i += 2;
      continue;
    }
    out += c;
  }
  return out;
}

RunResult CmdTr(const Invocation& inv, std::string_view stdin_data) {
  RunResult r;
  if (inv.operands.empty()) {
    return Fail(1, "tr: missing operand\n");
  }
  std::string set1 = ExpandTrSet(inv.operands[0]);
  if (inv.HasFlag('d')) {
    for (char c : stdin_data) {
      if (set1.find(c) == std::string::npos) {
        r.out += c;
      }
    }
    return r;
  }
  if (inv.operands.size() < 2) {
    return Fail(1, "tr: missing operand after '" + inv.operands[0] + "'\n");
  }
  std::string set2 = ExpandTrSet(inv.operands[1]);
  for (char c : stdin_data) {
    size_t pos = set1.find(c);
    if (pos != std::string::npos && !set2.empty()) {
      r.out += set2[std::min(pos, set2.size() - 1)];
    } else {
      r.out += c;
    }
  }
  return r;
}

RunResult CmdUniq(fs::FileSystem& fs, const Invocation& inv, std::string_view stdin_data) {
  RunResult r;
  LineInput input = ReadInput(fs, inv, stdin_data, 0, &r.exit_code, &r.err);
  const bool repeated_only = inv.HasFlag('d');
  const bool counted = inv.HasFlag('c');
  std::string_view prev;
  bool have_prev = false;
  int count = 0;
  auto flush = [&] {
    if (!have_prev) {
      return;
    }
    if (repeated_only && count < 2) {
      return;
    }
    if (counted) {  // printf's "%7d ".
      char buf[16];
      const char* end = std::to_chars(buf, buf + sizeof(buf), count).ptr;
      const size_t len = static_cast<size_t>(end - buf);
      r.out.append(len < 7 ? 7 - len : 0, ' ');
      r.out.append(buf, len);
      r.out += ' ';
    }
    AppendLine(&r.out, prev);
  };
  input.ForEach([&](std::string_view line) {
    if (have_prev && line == prev) {
      ++count;
      return;
    }
    flush();
    prev = line;
    have_prev = true;
    count = 1;
  });
  flush();
  return r;
}

RunResult CmdWc(fs::FileSystem& fs, const Invocation& inv, std::string_view stdin_data) {
  RunResult r;
  std::string joined;
  std::string_view data = stdin_data;
  if (!inv.operands.empty()) {
    for (const std::string& path : inv.operands) {
      Result<std::string> content = fs.ReadFile(path);
      if (!content.ok()) {
        r.exit_code = 1;
        r.err += "wc: " + content.status().message() + "\n";
        continue;
      }
      joined += *content;
    }
    data = joined;
  }
  size_t lines = 0;
  size_t words = 0;
  size_t bytes = data.size();
  bool in_word = false;
  for (char c : data) {
    if (c == '\n') {
      ++lines;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      in_word = false;
    } else if (!in_word) {
      in_word = true;
      ++words;
    }
  }
  const bool want_l = inv.HasFlag('l');
  const bool want_w = inv.HasFlag('w');
  const bool want_c = inv.HasFlag('c');
  const bool all = !want_l && !want_w && !want_c;
  std::vector<std::string> cols;
  if (all || want_l) {
    cols.push_back(std::to_string(lines));
  }
  if (all || want_w) {
    cols.push_back(std::to_string(words));
  }
  if (all || want_c) {
    cols.push_back(std::to_string(bytes));
  }
  r.out = " " + Join(cols, " ") + "\n";
  return r;
}

RunResult CmdLsbRelease(const Invocation& inv, const World& world) {
  RunResult r;
  const bool short_form = inv.HasFlag('s');
  auto emit = [&](const char* label, const std::string& value) {
    if (short_form) {
      r.out += value + "\n";
    } else {
      r.out += std::string(label) + ":\t" + value + "\n";
    }
  };
  bool any = false;
  if (inv.HasFlag('a') || inv.HasFlag('i')) {
    emit("Distributor ID", world.distributor_id);
    any = true;
  }
  if (inv.HasFlag('a') || inv.HasFlag('d')) {
    emit("Description", world.description);
    any = true;
  }
  if (inv.HasFlag('a') || inv.HasFlag('r')) {
    emit("Release", world.release);
    any = true;
  }
  if (inv.HasFlag('a') || inv.HasFlag('c')) {
    emit("Codename", world.codename);
    any = true;
  }
  if (!any) {
    emit("Distributor ID", world.distributor_id);
  }
  return r;
}

RunResult CmdCurl(fs::FileSystem& fs, const Invocation& inv, const World& world) {
  RunResult r;
  for (const std::string& url : inv.operands) {
    auto it = world.remote.find(url);
    if (it == world.remote.end()) {
      r.exit_code = 6;
      if (!inv.HasFlag('s')) {
        r.err += "curl: (6) Could not resolve host: " + url + "\n";
      }
      continue;
    }
    if (std::optional<std::string> out_file = inv.FlagArg('o'); out_file.has_value()) {
      Status s = fs.WriteFile(*out_file, it->second);
      if (!s.ok()) {
        r.exit_code = 23;
        r.err += "curl: (23) " + s.message() + "\n";
      }
    } else {
      r.out += it->second;
    }
  }
  return r;
}

}  // namespace

RunResult RunCommand(fs::FileSystem& fs, const std::vector<std::string>& argv,
                     std::string_view stdin_data, const World& world) {
  if (argv.empty()) {
    return Fail(127, "sh: empty command\n");
  }
  const std::string& name = argv[0];
  if (!HasCommand(name)) {
    return Fail(127, "sh: " + name + ": command not found\n");
  }

  // Simple commands that need no spec-parsed invocation.
  if (name == "pwd") {
    RunResult r;
    r.out = fs.cwd() + "\n";
    return r;
  }
  if (name == "true" || name == ":") {
    return RunResult{};
  }
  if (name == "false") {
    return Fail(1, "");
  }
  if (name == "uname") {
    RunResult r;
    r.out = "Linux\n";
    return r;
  }
  if (name == "date") {
    RunResult r;
    r.out = "Mon Jul  6 12:00:00 UTC 2026\n";
    return r;
  }
  if (name == "sleep") {
    return RunResult{};  // Time is not modeled.
  }
  if (name == "basename" || name == "dirname") {
    if (argv.size() < 2) {
      return Fail(1, name + ": missing operand\n");
    }
    RunResult r;
    r.out = (name == "basename" ? fs::BaseName(argv[1]) : fs::DirName(argv[1])) + "\n";
    return r;
  }

  const specs::CommandSpec* spec = SpecLibrary::BuiltinGroundTruth().Find(name);
  if (spec == nullptr) {
    return Fail(127, "sh: " + name + ": command not found\n");
  }
  Result<Invocation> inv = specs::ParseInvocation(
      spec->syntax, std::vector<std::string>(argv.begin() + 1, argv.end()));
  if (!inv.ok()) {
    return Fail(2, name + ": " + inv.status().message() + "\n");
  }

  if (name == "echo") {
    return CmdEcho(*inv);
  }
  if (name == "cat") {
    return CmdCat(fs, *inv, stdin_data);
  }
  if (name == "rm") {
    return CmdRm(fs, *inv);
  }
  if (name == "rmdir") {
    return CmdRmdir(fs, *inv);
  }
  if (name == "mkdir") {
    return CmdMkdir(fs, *inv);
  }
  if (name == "touch") {
    return CmdTouch(fs, *inv);
  }
  if (name == "cp") {
    return CmdCp(fs, *inv);
  }
  if (name == "mv") {
    return CmdMv(fs, *inv);
  }
  if (name == "ls") {
    return CmdLs(fs, *inv);
  }
  if (name == "realpath") {
    return CmdRealpath(fs, *inv);
  }
  if (name == "grep") {
    return CmdGrep(fs, *inv, stdin_data);
  }
  if (name == "sed") {
    return CmdSed(fs, *inv, stdin_data);
  }
  if (name == "cut") {
    return CmdCut(fs, *inv, stdin_data);
  }
  if (name == "sort") {
    return CmdSort(fs, *inv, stdin_data);
  }
  if (name == "head") {
    return CmdHeadTail(fs, *inv, stdin_data, /*head=*/true);
  }
  if (name == "tail") {
    return CmdHeadTail(fs, *inv, stdin_data, /*head=*/false);
  }
  if (name == "tr") {
    return CmdTr(*inv, stdin_data);
  }
  if (name == "uniq") {
    return CmdUniq(fs, *inv, stdin_data);
  }
  if (name == "wc") {
    return CmdWc(fs, *inv, stdin_data);
  }
  if (name == "lsb_release") {
    return CmdLsbRelease(*inv, world);
  }
  if (name == "curl") {
    return CmdCurl(fs, *inv, world);
  }
  return Fail(127, "sh: " + name + ": command not found\n");
}

bool HasCommand(const std::string& name) {
  static const std::set<std::string> kExtra = {"pwd",  "true", ":",        "false",
                                               "uname", "date", "sleep",   "basename",
                                               "dirname"};
  if (kExtra.count(name) > 0) {
    return true;
  }
  static const std::set<std::string> kModeled = {
      "echo", "cat",  "rm",   "rmdir", "mkdir", "touch", "cp",   "mv",
      "ls",   "realpath", "grep", "sed", "cut", "sort",  "head", "tail",
      "tr",   "uniq", "wc",   "lsb_release", "curl"};
  return kModeled.count(name) > 0;
}

std::vector<std::string> CommandNames() {
  std::vector<std::string> out = {
      "basename", "cat",  "cp",    "curl",  "cut",   "date",  "dirname", "echo",
      "false",    "grep", "head",  "ls",    "lsb_release", "mkdir", "mv", "pwd",
      "realpath", "rm",   "rmdir", "sed",   "sleep", "sort",  "tail",    "touch",
      "tr",       "true", "uname", "uniq",  "wc"};
  return out;
}

}  // namespace sash::exec
