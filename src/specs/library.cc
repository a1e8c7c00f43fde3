#include "specs/library.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace sash::specs {

SpecLibrary::SpecLibrary(SpecLibrary&& other) noexcept {
  std::lock_guard<std::mutex> lock(other.register_mu_);
  specs_ = std::move(other.specs_);
  snapshots_ = std::move(other.snapshots_);
  index_.store(other.index_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  other.index_.store(nullptr, std::memory_order_relaxed);
}

SpecLibrary& SpecLibrary::operator=(SpecLibrary&& other) noexcept {
  if (this != &other) {
    std::scoped_lock lock(register_mu_, other.register_mu_);
    specs_ = std::move(other.specs_);
    snapshots_ = std::move(other.snapshots_);
    index_.store(other.index_.load(std::memory_order_relaxed), std::memory_order_relaxed);
    other.index_.store(nullptr, std::memory_order_relaxed);
  }
  return *this;
}

void SpecLibrary::Register(CommandSpec spec) {
  util::Symbol sym = util::Symbol::Intern(spec.command());
  std::lock_guard<std::mutex> lock(register_mu_);
  const Index* current = index_.load(std::memory_order_relaxed);
  if (current != nullptr && current->count(sym) > 0) {
    std::fprintf(stderr, "specs: duplicate registration of command '%s'\n",
                 spec.command().c_str());
    std::abort();
  }
  specs_.push_back(std::move(spec));
  // Copy-on-write snapshot swap: concurrent readers keep probing the old
  // index (retired below, freed with the library) until the release store
  // hands them the successor — which includes the fully built new entry.
  auto next = current != nullptr ? std::make_unique<Index>(*current) : std::make_unique<Index>();
  next->emplace(sym, &specs_.back());
  index_.store(next.get(), std::memory_order_release);
  snapshots_.push_back(std::move(next));
}

std::vector<std::string> SpecLibrary::CommandNames() const {
  std::vector<std::string> out;
  out.reserve(specs_.size());
  for (const CommandSpec& spec : specs_) {
    out.push_back(spec.command());
  }
  std::sort(out.begin(), out.end());
  return out;
}

namespace {

FlagSpec Flag(char letter, std::string long_name, std::string description,
              bool takes_arg = false, ValueKind arg_kind = ValueKind::kString) {
  FlagSpec f;
  f.letter = letter;
  f.long_name = std::move(long_name);
  f.takes_arg = takes_arg;
  f.arg_kind = arg_kind;
  f.description = std::move(description);
  return f;
}

OperandSpec Operand(std::string name, ValueKind kind, int min_count, int max_count) {
  OperandSpec o;
  o.name = std::move(name);
  o.kind = kind;
  o.min_count = min_count;
  o.max_count = max_count;
  return o;
}

SpecCase Case(std::set<char> required, std::set<char> forbidden, std::vector<PreCond> pre,
              std::vector<Effect> effects, int exit_code, bool stdout_nonempty = false,
              bool stderr_nonempty = false) {
  SpecCase c;
  c.required_flags = std::move(required);
  c.forbidden_flags = std::move(forbidden);
  c.pre = std::move(pre);
  c.effects = std::move(effects);
  c.exit_code = exit_code;
  c.stdout_nonempty = stdout_nonempty;
  c.stderr_nonempty = stderr_nonempty;
  return c;
}

PreCond Pre(OperandSel sel, PathState state) { return PreCond{sel, state}; }

Effect Eff(EffectKind kind, OperandSel sel) { return Effect{kind, sel}; }

CommandSpec RmSpec() {
  CommandSpec s;
  s.syntax.command = "rm";
  s.syntax.summary = "remove directory entries";
  s.syntax.flags = {Flag('f', "force", "ignore nonexistent files, never prompt"),
                    Flag('r', "recursive", "remove directories and their contents recursively"),
                    Flag('R', "", "equivalent to -r"),
                    Flag('i', "interactive", "prompt before every removal"),
                    Flag('v', "verbose", "explain what is being done")};
  s.syntax.operands = {Operand("file", ValueKind::kPath, 1, -1)};
  // Ordered: first matching case wins.
  auto each = OperandSel::Each();
  s.cases = {
      // {(∃ $p)} rm -r -f $p {(∄ $p) ∧ exit 0} — and absent is a no-op.
      Case({'r', 'f'}, {}, {Pre(each, PathState::kExists)},
           {Eff(EffectKind::kDeleteTree, each)}, 0),
      Case({'r', 'f'}, {}, {Pre(each, PathState::kAbsent)}, {}, 0),
      Case({'r', 'f'}, {}, {Pre(each, PathState::kAny)}, {Eff(EffectKind::kDeleteTree, each)}, 0),
      Case({'r'}, {'f'}, {Pre(each, PathState::kExists)}, {Eff(EffectKind::kDeleteTree, each)}, 0),
      Case({'r'}, {'f'}, {Pre(each, PathState::kAbsent)}, {}, 1, false, true),
      Case({'f'}, {'r'}, {Pre(each, PathState::kIsFile)}, {Eff(EffectKind::kDeleteFile, each)}, 0),
      Case({'f'}, {'r'}, {Pre(each, PathState::kAbsent)}, {}, 0),
      Case({'f'}, {'r'}, {Pre(each, PathState::kIsDir)}, {}, 1, false, true),
      Case({}, {'r', 'f'}, {Pre(each, PathState::kIsFile)}, {Eff(EffectKind::kDeleteFile, each)},
           0),
      Case({}, {'r', 'f'}, {Pre(each, PathState::kIsDir)}, {}, 1, false, true),
      Case({}, {'r', 'f'}, {Pre(each, PathState::kAbsent)}, {}, 1, false, true),
  };
  return s;
}

CommandSpec RmdirSpec() {
  CommandSpec s;
  s.syntax.command = "rmdir";
  s.syntax.summary = "remove empty directories";
  s.syntax.flags = {Flag('p', "parents", "remove ancestor directories as well")};
  s.syntax.operands = {Operand("dir", ValueKind::kPath, 1, -1)};
  auto each = OperandSel::Each();
  s.cases = {
      // Emptiness is checked concretely; symbolically a kIsDir match may
      // still fail at runtime, which the engine reports as "may fail".
      Case({}, {}, {Pre(each, PathState::kIsDir)}, {Eff(EffectKind::kDeleteEmptyDir, each)}, 0),
      Case({}, {}, {Pre(each, PathState::kIsFile)}, {}, 1, false, true),
      Case({}, {}, {Pre(each, PathState::kAbsent)}, {}, 1, false, true),
  };
  return s;
}

CommandSpec MkdirSpec() {
  CommandSpec s;
  s.syntax.command = "mkdir";
  s.syntax.summary = "make directories";
  s.syntax.flags = {Flag('p', "parents", "no error if existing, make parents as needed"),
                    Flag('m', "mode", "set file mode", true)};
  s.syntax.operands = {Operand("dir", ValueKind::kPath, 1, -1)};
  auto each = OperandSel::Each();
  s.cases = {
      // mkdir -p: a no-op on an existing directory, an error when the path
      // is an existing non-directory (found by the prober, kept honest).
      Case({'p'}, {}, {Pre(each, PathState::kIsDir)}, {}, 0),
      Case({'p'}, {}, {Pre(each, PathState::kIsFile)}, {}, 1, false, true),
      Case({'p'}, {}, {Pre(each, PathState::kAny)}, {Eff(EffectKind::kCreateDir, each)}, 0),
      Case({}, {'p'}, {Pre(each, PathState::kAbsent)}, {Eff(EffectKind::kCreateDir, each)}, 0),
      Case({}, {'p'}, {Pre(each, PathState::kExists)}, {}, 1, false, true),
  };
  return s;
}

CommandSpec TouchSpec() {
  CommandSpec s;
  s.syntax.command = "touch";
  s.syntax.summary = "change file timestamps / create empty files";
  s.syntax.flags = {Flag('c', "no-create", "do not create any files")};
  s.syntax.operands = {Operand("file", ValueKind::kPath, 1, -1)};
  auto each = OperandSel::Each();
  s.cases = {
      Case({'c'}, {}, {Pre(each, PathState::kAny)}, {}, 0),
      Case({}, {'c'}, {Pre(each, PathState::kAbsent)}, {Eff(EffectKind::kCreateFile, each)}, 0),
      Case({}, {'c'}, {Pre(each, PathState::kExists)}, {}, 0),
  };
  return s;
}

CommandSpec CatSpec() {
  CommandSpec s;
  s.syntax.command = "cat";
  s.syntax.summary = "concatenate and print files";
  s.syntax.flags = {Flag('n', "number", "number all output lines"),
                    Flag('u', "", "unbuffered output")};
  s.syntax.operands = {Operand("file", ValueKind::kPath, 0, -1)};
  auto each = OperandSel::Each();
  s.cases = {
      Case({}, {}, {Pre(each, PathState::kIsFile)}, {Eff(EffectKind::kReadFile, each)}, 0, true),
      Case({}, {}, {Pre(each, PathState::kIsDir)}, {}, 1, false, true),
      Case({}, {}, {Pre(each, PathState::kAbsent)}, {}, 1, false, true),
  };
  return s;
}

CommandSpec CpSpec() {
  CommandSpec s;
  s.syntax.command = "cp";
  s.syntax.summary = "copy files";
  s.syntax.flags = {Flag('r', "recursive", "copy directories recursively"),
                    Flag('R', "", "equivalent to -r"),
                    Flag('f', "force", "overwrite without prompting"),
                    Flag('p', "preserve", "preserve attributes")};
  s.syntax.operands = {Operand("source", ValueKind::kPath, 1, -1),
                       Operand("target", ValueKind::kPath, 1, 1)};
  auto srcs = OperandSel::AllButLast();
  auto dst = OperandSel::Last();
  s.cases = {
      // Copying a directory over an existing non-directory fails even with -r.
      Case({'r'}, {}, {Pre(srcs, PathState::kIsDir), Pre(dst, PathState::kIsFile)}, {}, 1, false,
           true),
      Case({'r'}, {}, {Pre(srcs, PathState::kExists)}, {Eff(EffectKind::kCopyToLast, srcs)}, 0),
      Case({}, {'r'}, {Pre(srcs, PathState::kIsFile)}, {Eff(EffectKind::kCopyToLast, srcs)}, 0),
      Case({}, {'r'}, {Pre(srcs, PathState::kIsDir)}, {}, 1, false, true),
      Case({}, {}, {Pre(srcs, PathState::kAbsent)}, {}, 1, false, true),
  };
  return s;
}

CommandSpec MvSpec() {
  CommandSpec s;
  s.syntax.command = "mv";
  s.syntax.summary = "move (rename) files";
  s.syntax.flags = {Flag('f', "force", "do not prompt before overwriting"),
                    Flag('i', "interactive", "prompt before overwrite")};
  s.syntax.operands = {Operand("source", ValueKind::kPath, 1, -1),
                       Operand("target", ValueKind::kPath, 1, 1)};
  auto srcs = OperandSel::AllButLast();
  auto dst = OperandSel::Last();
  s.cases = {
      // A directory cannot overwrite an existing non-directory.
      Case({}, {}, {Pre(srcs, PathState::kIsDir), Pre(dst, PathState::kIsFile)}, {}, 1, false,
           true),
      Case({}, {}, {Pre(srcs, PathState::kExists)}, {Eff(EffectKind::kMoveToLast, srcs)}, 0),
      Case({}, {}, {Pre(srcs, PathState::kAbsent)}, {}, 1, false, true),
  };
  return s;
}

CommandSpec LsSpec() {
  CommandSpec s;
  s.syntax.command = "ls";
  s.syntax.summary = "list directory contents";
  s.syntax.flags = {Flag('l', "", "long listing format"), Flag('a', "all", "include dotfiles"),
                    Flag('1', "", "one entry per line"), Flag('d', "directory", "list dirs themselves"),
                    Flag('R', "", "recursive")};
  s.syntax.operands = {Operand("path", ValueKind::kPath, 0, -1)};
  auto each = OperandSel::Each();
  s.cases = {
      Case({}, {}, {Pre(each, PathState::kExists)}, {Eff(EffectKind::kReadFile, each)}, 0, true),
      Case({}, {}, {Pre(each, PathState::kAbsent)}, {}, 2, false, true),
  };
  return s;
}

CommandSpec RealpathSpec() {
  CommandSpec s;
  s.syntax.command = "realpath";
  s.syntax.summary = "print the resolved (canonical) path";
  s.syntax.flags = {Flag('e', "canonicalize-existing", "all components must exist"),
                    Flag('m', "canonicalize-missing", "no components need exist")};
  s.syntax.operands = {Operand("path", ValueKind::kPath, 1, -1)};
  auto each = OperandSel::Each();
  s.cases = {
      Case({'m'}, {}, {Pre(each, PathState::kAny)}, {}, 0, true),
      Case({}, {'m'}, {Pre(each, PathState::kExists)}, {}, 0, true),
      Case({}, {'m'}, {Pre(each, PathState::kAbsent)}, {}, 1, false, true),
  };
  s.stdout_line_type = "/([^/\\x00]+/)*[^/\\x00]*";
  return s;
}

CommandSpec EchoSpec() {
  CommandSpec s;
  s.syntax.command = "echo";
  s.syntax.summary = "write arguments to standard output";
  s.syntax.flags = {Flag('n', "", "do not output the trailing newline")};
  s.syntax.operands = {Operand("string", ValueKind::kString, 0, -1)};
  s.cases = {Case({}, {}, {}, {}, 0, true)};
  return s;
}

CommandSpec GrepSpec() {
  CommandSpec s;
  s.syntax.command = "grep";
  s.syntax.summary = "search input for lines matching a pattern";
  s.syntax.flags = {Flag('q', "quiet", "suppress output"),
                    Flag('v', "invert-match", "select non-matching lines"),
                    Flag('i', "ignore-case", "case-insensitive match"),
                    Flag('o', "only-matching", "print only the matched parts"),
                    Flag('E', "extended-regexp", "extended regular expressions"),
                    Flag('F', "fixed-strings", "fixed-string match"),
                    Flag('c', "count", "print a count of matching lines"),
                    Flag('n', "line-number", "prefix output with line numbers"),
                    Flag('e', "regexp", "pattern", true, ValueKind::kPattern)};
  s.syntax.operands = {Operand("pattern", ValueKind::kPattern, 1, 1),
                       Operand("file", ValueKind::kPath, 0, -1)};
  auto files = OperandSel::AllButFirst();
  s.cases = {
      // Exit code 0 = matched, 1 = no match: modeled as "some" (-1).
      Case({}, {}, {Pre(files, PathState::kIsFile)}, {Eff(EffectKind::kReadFile, files)}, -1,
           true),
      Case({}, {}, {Pre(files, PathState::kAbsent)}, {}, 2, false, true),
  };
  return s;
}

// Read-stdin/write-stdout filters share one shape.
CommandSpec FilterSpec(const std::string& name, const std::string& summary,
                       std::vector<FlagSpec> flags,
                       std::vector<OperandSpec> operands = {}) {
  CommandSpec s;
  s.syntax.command = name;
  s.syntax.summary = summary;
  s.syntax.flags = std::move(flags);
  if (operands.empty()) {
    s.syntax.operands = {Operand("file", ValueKind::kPath, 0, -1)};
  } else {
    s.syntax.operands = std::move(operands);
  }
  auto each = OperandSel::Each();
  s.cases = {
      Case({}, {}, {Pre(each, PathState::kIsFile)}, {Eff(EffectKind::kReadFile, each)}, 0, true),
      Case({}, {}, {Pre(each, PathState::kAbsent)}, {}, 1, false, true),
      Case({}, {}, {}, {}, 0, true),  // Pure-stdin use.
  };
  return s;
}

CommandSpec LsbReleaseSpec() {
  CommandSpec s;
  s.syntax.command = "lsb_release";
  s.syntax.summary = "print distribution information";
  s.syntax.flags = {Flag('a', "all", "display all information"),
                    Flag('s', "short", "display in short format"),
                    Flag('i', "id", "display distributor id"),
                    Flag('d', "description", "display description"),
                    Flag('r', "release", "display release number"),
                    Flag('c', "codename", "display codename")};
  s.cases = {Case({}, {}, {}, {}, 0, true)};
  // The paper's §3 line type for lsb_release -a output.
  s.stdout_line_type = "(Distributor ID|Description|Release|Codename):\\t.*";
  return s;
}

CommandSpec CurlSpec() {
  CommandSpec s;
  s.syntax.command = "curl";
  s.syntax.summary = "transfer a URL";
  s.syntax.flags = {Flag('s', "silent", "silent mode"),
                    Flag('L', "location", "follow redirects"),
                    Flag('f', "fail", "fail silently on server errors"),
                    Flag('o', "output", "write output to file", true, ValueKind::kPath),
                    Flag('O', "remote-name", "write output to a file named like the remote")};
  s.syntax.operands = {Operand("url", ValueKind::kString, 1, -1)};
  s.cases = {Case({}, {}, {}, {}, -1, true)};
  return s;
}

CommandSpec TrivialSpec(const std::string& name, const std::string& summary, int exit_code,
                        bool stdout_nonempty) {
  CommandSpec s;
  s.syntax.command = name;
  s.syntax.summary = summary;
  s.cases = {Case({}, {}, {}, {}, exit_code, stdout_nonempty)};
  return s;
}

CommandSpec PathToTextSpec(const std::string& name, const std::string& summary) {
  CommandSpec s;
  s.syntax.command = name;
  s.syntax.summary = summary;
  s.syntax.operands = {Operand("path", ValueKind::kString, 1, 2)};
  s.cases = {Case({}, {}, {}, {}, 0, true)};
  return s;
}

SpecLibrary BuildGroundTruth() {
  SpecLibrary lib;
  lib.Register(RmSpec());
  lib.Register(RmdirSpec());
  lib.Register(MkdirSpec());
  lib.Register(TouchSpec());
  lib.Register(CatSpec());
  lib.Register(CpSpec());
  lib.Register(MvSpec());
  lib.Register(LsSpec());
  lib.Register(RealpathSpec());
  lib.Register(EchoSpec());
  lib.Register(GrepSpec());
  lib.Register(LsbReleaseSpec());
  lib.Register(CurlSpec());
  lib.Register(FilterSpec(
      "sed", "stream editor",
      {Flag('n', "quiet", "suppress automatic printing"),
       Flag('e', "expression", "add script", true, ValueKind::kPattern)},
      {Operand("script", ValueKind::kPattern, 1, 1), Operand("file", ValueKind::kPath, 0, -1)}));
  lib.Register(FilterSpec("cut", "remove sections from lines",
                          {Flag('f', "fields", "select fields", true),
                           Flag('d', "delimiter", "field delimiter", true),
                           Flag('c', "characters", "select characters", true)}));
  lib.Register(FilterSpec("sort", "sort lines of text",
                          {Flag('g', "general-numeric-sort", "general numeric sort"),
                           Flag('n', "numeric-sort", "numeric sort"),
                           Flag('r', "reverse", "reverse order"),
                           Flag('u', "unique", "unique lines"),
                           Flag('k', "key", "sort key", true)}));
  lib.Register(FilterSpec("head", "output the first part of files",
                          {Flag('n', "lines", "number of lines", true, ValueKind::kNumber),
                           Flag('c', "bytes", "number of bytes", true, ValueKind::kNumber)}));
  lib.Register(FilterSpec("tail", "output the last part of files",
                          {Flag('n', "lines", "number of lines", true, ValueKind::kNumber),
                           Flag('f', "follow", "output appended data as the file grows")}));
  lib.Register(FilterSpec("tr", "translate characters",
                          {Flag('d', "delete", "delete characters"),
                           Flag('s', "squeeze-repeats", "squeeze repeats")},
                          {Operand("set1", ValueKind::kString, 1, 1),
                           Operand("set2", ValueKind::kString, 0, 1)}));
  lib.Register(FilterSpec("uniq", "report or omit repeated lines",
                          {Flag('c', "count", "prefix lines by count"),
                           Flag('d', "repeated", "only print duplicates")}));
  lib.Register(FilterSpec("wc", "print line, word, and byte counts",
                          {Flag('l', "lines", "print line count"),
                           Flag('w', "words", "print word count"),
                           Flag('c', "bytes", "print byte count")}));
  lib.Register(PathToTextSpec("basename", "strip directory and suffix from a path"));
  lib.Register(PathToTextSpec("dirname", "strip the last component from a path"));
  lib.Register(TrivialSpec("uname", "print system information", 0, true));
  lib.Register(TrivialSpec("date", "print the current date and time", 0, true));
  lib.Register(TrivialSpec("pwd", "print the working directory", 0, true));
  lib.Register(TrivialSpec("true", "do nothing, successfully", 0, false));
  lib.Register(TrivialSpec("false", "do nothing, unsuccessfully", 1, false));
  {
    CommandSpec sleep_spec;
    sleep_spec.syntax.command = "sleep";
    sleep_spec.syntax.summary = "suspend execution for an interval";
    sleep_spec.syntax.operands = {Operand("seconds", ValueKind::kNumber, 1, 1)};
    sleep_spec.cases = {Case({}, {}, {}, {}, 0)};
    lib.Register(std::move(sleep_spec));
  }
  {
    CommandSpec chmod_spec;
    chmod_spec.syntax.command = "chmod";
    chmod_spec.syntax.summary = "change file mode bits (modes not modeled)";
    chmod_spec.syntax.flags = {Flag('R', "recursive", "operate recursively")};
    chmod_spec.syntax.operands = {Operand("mode", ValueKind::kString, 1, 1),
                                  Operand("file", ValueKind::kPath, 1, -1)};
    auto files = OperandSel::AllButFirst();
    chmod_spec.cases = {
        Case({}, {}, {Pre(files, PathState::kExists)}, {}, 0),
        Case({}, {}, {Pre(files, PathState::kAbsent)}, {}, 1, false, true),
    };
    lib.Register(std::move(chmod_spec));
  }
  return lib;
}

}  // namespace

const SpecLibrary& SpecLibrary::BuiltinGroundTruth() {
  // Immutable after construction, so the magic static is the only lock.
  static const SpecLibrary kLibrary = BuildGroundTruth();
  return kLibrary;
}

}  // namespace sash::specs
