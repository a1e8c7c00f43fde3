#include "mining/spec_compiler.h"

#include <algorithm>
#include <map>
#include <set>

#include "util/strings.h"

namespace sash::mining {

namespace {

using specs::CommandSpec;
using specs::Effect;
using specs::EffectKind;
using specs::Invocation;
using specs::OperandSel;
using specs::PathState;
using specs::PreCond;
using specs::SpecCase;
using specs::SyntaxSpec;

PathState StateOfShape(OperandShape shape) {
  switch (shape) {
    case OperandShape::kFile:
      return PathState::kIsFile;
    case OperandShape::kDirWithChild:
    case OperandShape::kEmptyDir:
      return PathState::kIsDir;
    case OperandShape::kAbsent:
      return PathState::kAbsent;
  }
  return PathState::kAny;
}

// Normalized observable behavior classes.
struct Outcome {
  int exit_class = 0;  // 0 success, 1 failure, -1 varies.
  std::vector<std::string> effects;  // Sorted "p<i>:<class>" entries.
  bool stderr_nonempty = false;
  bool stdout_nonempty = false;

  std::string Key() const {
    return std::to_string(exit_class) + "|" + Join(effects, ",") + "|" +
           (stderr_nonempty ? "E" : "-") + (stdout_nonempty ? "O" : "-");
  }
  bool operator==(const Outcome& o) const { return Key() == o.Key(); }
};

// True when anything strictly below `path` changed between snapshots.
bool SubtreeChanged(const fs::FileSystem::Snapshot& before, const fs::FileSystem::Snapshot& after,
                    const std::string& path) {
  std::string prefix = path + "/";
  for (const auto& [p, entry] : before) {
    if (StartsWith(p, prefix)) {
      auto it = after.find(p);
      if (it == after.end() || !(it->second == entry)) {
        return true;
      }
    }
  }
  for (const auto& [p, entry] : after) {
    if (StartsWith(p, prefix) && before.find(p) == before.end()) {
      return true;
    }
  }
  return false;
}

// What happened at one probe path, from snapshots and trace.
std::vector<std::string> ObserveEffects(const ProbeRecord& rec,
                                        const std::vector<int>& path_operands) {
  std::vector<std::string> out;
  for (size_t i = 0; i < path_operands.size(); ++i) {
    std::string path = ProbeOperandPath(path_operands[i]);
    auto before = rec.before.find(path);
    auto after = rec.after.find(path);
    bool existed = before != rec.before.end();
    bool exists = after != rec.after.end();
    std::string tag = "p" + std::to_string(i) + ":";
    if (existed && !exists) {
      out.push_back(tag + "delete");
    } else if (!existed && exists) {
      out.push_back(tag + (after->second.type == fs::NodeType::kDir ? "create-dir"
                                                                    : "create-file"));
    } else if (existed && exists && !(before->second == after->second)) {
      out.push_back(tag + "create-file");  // Content change ~ write.
    } else if (existed && SubtreeChanged(rec.before, rec.after, path)) {
      out.push_back(tag + "write-under");  // mv/cp into a directory target.
    } else {
      // Unchanged: was it read?
      for (const fs::TraceEntry& e : rec.trace) {
        if ((e.op == fs::TraceOp::kRead || e.op == fs::TraceOp::kReadDir) && e.ok &&
            (e.path == path || StartsWith(e.path, path + "/"))) {
          out.push_back(tag + "read");
          break;
        }
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string FlagSetKey(const std::set<char>& flags) {
  std::string out;
  for (char f : flags) {
    out += f;
  }
  return out;
}

// Path operand indices as the enumerator assigned them.
std::vector<int> PathOperandIndices(const SyntaxSpec& syntax) {
  std::vector<int> out;
  int index = 0;
  for (const specs::OperandSpec& o : syntax.operands) {
    int count = std::max(o.min_count, 1);
    for (int k = 0; k < count; ++k) {
      if (o.kind == specs::ValueKind::kPath) {
        out.push_back(index);
      }
      ++index;
    }
  }
  return out;
}

}  // namespace

CommandSpec CompileSpec(const SyntaxSpec& syntax, const std::vector<ProbeRecord>& records) {
  CommandSpec spec;
  spec.syntax = syntax;
  std::vector<int> path_operands = PathOperandIndices(syntax);

  // Collect outcomes per (flag set, environment).
  struct Observation {
    std::set<char> flags;
    ProbeEnvironment env;
    Outcome outcome;
  };
  std::vector<Observation> observations;
  std::set<char> swept_flags;
  for (const ProbeRecord& rec : records) {
    Observation ob;
    ob.flags = rec.invocation.flags;
    ob.env = rec.env;
    ob.outcome.exit_class = rec.exit_code == 0 ? 0 : 1;
    ob.outcome.effects = ObserveEffects(rec, path_operands);
    ob.outcome.stderr_nonempty = rec.stderr_nonempty;
    ob.outcome.stdout_nonempty = rec.stdout_nonempty;
    for (char f : ob.flags) {
      swept_flags.insert(f);
    }
    observations.push_back(std::move(ob));
  }

  // Flag relevance: f matters iff toggling it changes some outcome.
  auto outcome_of = [&](const std::set<char>& flags,
                        const std::string& env_key) -> const Outcome* {
    for (const Observation& ob : observations) {
      if (ob.flags == flags && ob.env.Describe() == env_key) {
        return &ob.outcome;
      }
    }
    return nullptr;
  };
  std::set<char> relevant;
  for (char f : swept_flags) {
    bool matters = false;
    for (const Observation& ob : observations) {
      if (ob.flags.count(f) > 0) {
        continue;
      }
      std::set<char> with = ob.flags;
      with.insert(f);
      const Outcome* other = outcome_of(with, ob.env.Describe());
      if (other != nullptr && !(*other == ob.outcome)) {
        matters = true;
        break;
      }
    }
    if (matters) {
      relevant.insert(f);
    }
  }

  // Group by (relevant flags, per-operand PathState); shapes that map to the
  // same state (empty vs non-empty directory) merge, with exit varying when
  // they disagree.
  struct Group {
    std::set<char> flags;
    std::vector<PathState> states;
    std::vector<Outcome> outcomes;
  };
  std::map<std::string, Group> groups;
  for (const Observation& ob : observations) {
    std::set<char> key_flags;
    for (char f : ob.flags) {
      if (relevant.count(f) > 0) {
        key_flags.insert(f);
      }
    }
    std::vector<PathState> states;
    states.reserve(ob.env.shapes.size());
    for (OperandShape s : ob.env.shapes) {
      states.push_back(StateOfShape(s));
    }
    std::string key = FlagSetKey(key_flags) + "#";
    for (PathState s : states) {
      key += std::string(specs::PathStateName(s)) + ",";
    }
    Group& g = groups[key];
    g.flags = key_flags;
    g.states = states;
    g.outcomes.push_back(ob.outcome);
  }

  for (auto& [key, g] : groups) {
    SpecCase c;
    c.required_flags = g.flags;
    for (char f : relevant) {
      if (g.flags.count(f) == 0) {
        c.forbidden_flags.insert(f);
      }
    }
    for (size_t i = 0; i < g.states.size(); ++i) {
      c.pre.push_back(PreCond{OperandSel::Index(path_operands[i]), g.states[i]});
    }
    // Merge outcomes: unanimous exit keeps its class; disagreement -> varies.
    bool all_same = true;
    for (const Outcome& o : g.outcomes) {
      if (!(o == g.outcomes[0])) {
        all_same = false;
      }
    }
    const Outcome& first = g.outcomes[0];
    std::set<std::string> effect_union;
    bool stderr_any = false;
    bool stdout_any = false;
    int exit_class = first.exit_class;
    for (const Outcome& o : g.outcomes) {
      for (const std::string& e : o.effects) {
        effect_union.insert(e);
      }
      stderr_any = stderr_any || o.stderr_nonempty;
      stdout_any = stdout_any || o.stdout_nonempty;
      if (o.exit_class != exit_class) {
        exit_class = -1;
      }
    }
    (void)all_same;
    c.exit_code = exit_class;
    c.stderr_nonempty = stderr_any;
    c.stdout_nonempty = stdout_any;
    for (const std::string& e : effect_union) {
      // "p<i>:<class>".
      size_t colon = e.find(':');
      int operand = std::atoi(e.substr(1, colon - 1).c_str());
      std::string cls = e.substr(colon + 1);
      EffectKind kind = EffectKind::kNone;
      if (cls == "delete") {
        kind = EffectKind::kDeleteTree;
      } else if (cls == "create-file") {
        kind = EffectKind::kCreateFile;
      } else if (cls == "create-dir") {
        kind = EffectKind::kCreateDir;
      } else if (cls == "write-under") {
        kind = EffectKind::kWriteUnder;
      } else if (cls == "read") {
        kind = EffectKind::kReadFile;
      }
      if (kind != EffectKind::kNone) {
        c.effects.push_back(Effect{kind, OperandSel::Index(path_operands[operand])});
      }
    }
    spec.cases.push_back(std::move(c));
  }
  return spec;
}

namespace {

// Effect normalization for behavioral comparison: per-operand "deleted" and
// "touched" (created / written / modified at-or-under) sets. Pure reads are
// not part of the mutation contract and are ignored.
std::set<std::string> EffectClasses(const SpecCase& c, int operand_count) {
  std::set<std::string> out;
  for (const Effect& e : c.effects) {
    std::vector<int> indices = specs::SelectOperands(e.sel, operand_count);
    for (int idx : indices) {
      std::string tag = "p" + std::to_string(idx) + ":";
      switch (e.kind) {
        case EffectKind::kDeleteTree:
        case EffectKind::kDeleteFile:
        case EffectKind::kDeleteEmptyDir:
          out.insert(tag + "delete");
          break;
        case EffectKind::kCreateFile:
        case EffectKind::kTruncateWrite:
        case EffectKind::kCreateDir:
        case EffectKind::kWriteUnder:
          out.insert(tag + "touch");
          break;
        case EffectKind::kReadFile:
          break;
        case EffectKind::kCopyToLast:
          out.insert("p" + std::to_string(operand_count - 1) + ":touch");
          break;
        case EffectKind::kMoveToLast:
          out.insert(tag + "delete");
          out.insert("p" + std::to_string(operand_count - 1) + ":touch");
          break;
        case EffectKind::kNone:
          break;
      }
    }
  }
  return out;
}

}  // namespace

ValidationReport CompareBehavior(const specs::CommandSpec& mined,
                                 const specs::CommandSpec& truth) {
  ValidationReport report;
  // Sweep boolean flags of the ground-truth syntax and all state vectors.
  std::vector<char> booleans;
  for (const specs::FlagSpec& f : truth.syntax.flags) {
    if (!f.takes_arg && f.letter != '\0') {
      booleans.push_back(f.letter);
    }
  }
  std::vector<int> path_operands = PathOperandIndices(truth.syntax);
  int operand_count = 0;
  for (const specs::OperandSpec& o : truth.syntax.operands) {
    operand_count += std::max(o.min_count, 1);
  }

  const PathState kStates[] = {PathState::kIsFile, PathState::kIsDir, PathState::kAbsent};
  size_t state_combos = 1;
  for (size_t i = 0; i < path_operands.size(); ++i) {
    state_combos *= 3;
  }
  state_combos = std::max<size_t>(state_combos, 1);

  const size_t flag_subsets = static_cast<size_t>(1) << std::min<size_t>(booleans.size(), 6);
  for (size_t mask = 0; mask < flag_subsets; ++mask) {
    Invocation inv;
    inv.command = truth.command();
    for (size_t b = 0; b < booleans.size() && b < 6; ++b) {
      if ((mask >> b) & 1) {
        inv.flags.insert(booleans[b]);
      }
    }
    for (int i = 0; i < operand_count; ++i) {
      inv.operands.push_back(ProbeOperandPath(i));
    }
    for (size_t sc = 0; sc < state_combos; ++sc) {
      std::vector<PathState> states(static_cast<size_t>(operand_count), PathState::kAny);
      size_t rest = sc;
      for (size_t i = 0; i < path_operands.size(); ++i) {
        states[static_cast<size_t>(path_operands[i])] = kStates[rest % 3];
        rest /= 3;
      }
      ++report.configurations;
      const SpecCase* mc = mined.MatchCase(inv, states);
      const SpecCase* tc = truth.MatchCase(inv, states);
      if (mc == nullptr || tc == nullptr) {
        if (mc == tc) {
          ++report.agreements;  // Both decline: agreement.
        } else {
          report.disagreements.push_back(truth.command() + " flags=" +
                                         FlagSetKey(inv.flags) + ": one spec has no case");
        }
        continue;
      }
      // Exit codes compare by class (success / failure / varies).
      auto exit_class = [](int code) { return code == 0 ? 0 : code < 0 ? -1 : 1; };
      bool exit_compatible = exit_class(mc->exit_code) == exit_class(tc->exit_code) ||
                             mc->exit_code == -1 || tc->exit_code == -1;
      bool effects_equal =
          EffectClasses(*mc, operand_count) == EffectClasses(*tc, operand_count);
      if (exit_compatible && effects_equal) {
        ++report.agreements;
      } else {
        std::string detail = truth.command() + " flags={" + FlagSetKey(inv.flags) + "} states={";
        for (PathState s : states) {
          detail += std::string(specs::PathStateName(s)) + " ";
        }
        detail += "}: mined(exit=" + std::to_string(mc->exit_code) +
                  ") vs truth(exit=" + std::to_string(tc->exit_code) + ")";
        if (!effects_equal) {
          detail += " effects differ";
        }
        report.disagreements.push_back(std::move(detail));
      }
    }
  }
  return report;
}

}  // namespace sash::mining
