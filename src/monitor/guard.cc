#include "monitor/guard.h"

#include "fs/path.h"
#include "specs/library.h"
#include "util/strings.h"

namespace sash::monitor {

namespace {

bool UnderPrefix(const std::string& path, const std::string& prefix) {
  std::string p = fs::NormalizePath(path);
  std::string pre = fs::NormalizePath(prefix);
  return p == pre || StartsWith(p, pre == "/" ? pre : pre + "/");
}

// Effect classes a command's flag-matching cases may have on path operands.
struct EffectSummary {
  bool deletes = false;
  bool writes = false;
  bool reads = false;
};

EffectSummary SummarizeEffects(const specs::CommandSpec& spec, const specs::Invocation& inv) {
  EffectSummary out;
  for (const specs::SpecCase& c : spec.cases) {
    if (!c.FlagsMatch(inv)) {
      continue;
    }
    for (const specs::Effect& e : c.effects) {
      switch (e.kind) {
        case specs::EffectKind::kDeleteTree:
        case specs::EffectKind::kDeleteFile:
        case specs::EffectKind::kDeleteEmptyDir:
          out.deletes = true;
          break;
        case specs::EffectKind::kCreateFile:
        case specs::EffectKind::kCreateDir:
        case specs::EffectKind::kTruncateWrite:
        case specs::EffectKind::kWriteUnder:
        case specs::EffectKind::kCopyToLast:
          out.writes = true;
          break;
        case specs::EffectKind::kMoveToLast:
          out.deletes = true;
          out.writes = true;
          break;
        case specs::EffectKind::kReadFile:
          out.reads = true;
          break;
        case specs::EffectKind::kNone:
          break;
      }
    }
  }
  return out;
}

// The runtime guard, called before each external command with its argv
// (globs already resolved) and each argument's word before pathname
// expansion: predicts the command's effects from the specification library
// and returns false, with a reason, for a policy violator or a delete at
// the root. Synthetic "__write__ <path>" argvs guard output redirections.
bool Allowed(const symex::EffectPolicy& policy, const fs::FileSystem& fs,
             const std::vector<std::string>& argv, const std::vector<std::string>& pre_glob,
             std::string* reason) {
  auto absolutize = [&fs](const std::string& p) { return fs::Absolutize(p, fs.cwd()); };
  // True (with the reason set) when `path` lies under a protected prefix.
  auto violates = [&](const std::string& path, bool write, const std::string& action) {
    for (const std::string& prefix : write ? policy.no_write : policy.no_read) {
      if (UnderPrefix(path, prefix)) {
        *reason = (write ? "policy --no-RW " : "policy --no-read ") + prefix + ": blocked " +
                  action + path;
        return true;
      }
    }
    return false;
  };

  if (argv.empty()) {
    return true;
  }
  if (argv[0] == "__write__") {
    return argv.size() < 2 || !violates(absolutize(argv[1]), /*write=*/true, "write to ");
  }
  const specs::CommandSpec* spec = specs::SpecLibrary::BuiltinGroundTruth().Find(argv[0]);
  if (spec == nullptr) {
    return true;  // Unknown commands have no modeled effects.
  }
  Result<specs::Invocation> inv = specs::ParseInvocation(
      spec->syntax, std::vector<std::string>(argv.begin() + 1, argv.end()));
  if (!inv.ok()) {
    return true;  // The command itself will fail; nothing to guard.
  }
  EffectSummary effects = SummarizeEffects(*spec, *inv);

  // Root deletion is judged on the words as written: by the time the
  // command runs, Fig. 1's "$STEAMROOT/"* has already globbed to /home
  // /tmp ..., which is no longer a root path.
  if (effects.deletes) {
    for (size_t i = 1; i < pre_glob.size(); ++i) {
      if (!pre_glob[i].empty() && symex::DangerLanguage().Matches(absolutize(pre_glob[i]))) {
        *reason = "blocked deletion at the file system root (" + argv[0] + " " + pre_glob[i] + ")";
        return false;
      }
    }
  }

  // Path operands take the command's effects; path-kind flag arguments
  // (-o file style) are written.
  const std::string action = argv[0] + " on ";
  std::vector<const specs::OperandSpec*> slots =
      specs::AssignOperands(spec->syntax, static_cast<int>(inv->operands.size()));
  for (size_t i = 0; i < inv->operands.size(); ++i) {
    if (slots[i] == nullptr || slots[i]->kind != specs::ValueKind::kPath) {
      continue;
    }
    const std::string path = absolutize(inv->operands[i]);
    if (((effects.deletes || effects.writes) && violates(path, /*write=*/true, action)) ||
        (effects.reads && violates(path, /*write=*/false, action))) {
      return false;
    }
  }
  for (const specs::FlagSpec& f : spec->syntax.flags) {
    if (f.takes_arg && f.arg_kind == specs::ValueKind::kPath) {
      std::optional<std::string> value = inv->FlagArg(f.letter);
      if (value.has_value() &&
          (violates(absolutize(*value), /*write=*/true, action) ||
           (effects.reads && violates(absolutize(*value), /*write=*/false, action)))) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

VerifyReport Verify(const syntax::Program& program, const symex::EffectPolicy& policy,
                    fs::FileSystem* fs, InterpOptions options, bool execute) {
  VerifyReport report;
  symex::EngineOptions engine_options;
  engine_options.policy = policy;
  DiagnosticSink sink;
  symex::Engine(std::move(engine_options), &sink).Run(program);
  for (Diagnostic& d : sink.TakeAll()) {
    if (d.severity == Severity::kError &&
        (d.code == symex::kCodeDeleteRoot || d.code == symex::kCodePolicy)) {
      report.static_findings.push_back(std::move(d));
    }
  }
  if (!execute) {
    return report;
  }
  Interpreter interp(fs, std::move(options));
  interp.set_command_hook([&](const std::vector<std::string>& argv,
                              const std::vector<std::string>& pre_glob, std::string* reason) {
    if (Allowed(policy, *fs, argv, pre_glob, reason)) {
      return true;
    }
    report.blocked = true;
    report.block_reason = *reason;
    return false;
  });
  report.run = interp.Run(program);
  report.executed = true;
  return report;
}

}  // namespace sash::monitor
