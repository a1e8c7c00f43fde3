// Control flow, external-command specification application, state-explosion
// controls, and the incorrectness criteria the engine checks natively
// (catastrophic deletion, always-failing invocations).
#include "symex/engine.h"

#include <algorithm>
#include <functional>

#include "fs/path.h"
#include "regex/glob.h"
#include "symex/evaluator.h"
#include "util/strings.h"

namespace sash::symex {

namespace {

using specs::PathState;
using symfs::Knowledge;
using symfs::PathKey;
using syntax::Command;
using syntax::CommandKind;
using syntax::ListOp;

// Names assigned anywhere inside a command (for loop widening).
std::vector<std::string> AssignedNames(const Command& cmd) {
  std::vector<std::string> out;
  syntax::Program wrapper;  // Borrowing the visitor via a fake program.
  // VisitCommands needs a Program; walk manually instead.
  std::function<void(const Command&)> walk = [&](const Command& c) {
    switch (c.kind) {
      case CommandKind::kSimple:
        for (const syntax::Assignment& a : c.simple.assignments) {
          out.push_back(a.name);
        }
        if (!c.simple.words.empty()) {
          std::string name;
          if (c.simple.words[0].IsStatic(&name) && name == "read") {
            for (size_t i = 1; i < c.simple.words.size(); ++i) {
              std::string arg;
              if (c.simple.words[i].IsStatic(&arg) && !arg.empty() && arg[0] != '-') {
                out.push_back(arg);
              }
            }
          }
        }
        break;
      case CommandKind::kPipeline:
        for (const syntax::CommandPtr& p : c.pipeline.commands) {
          walk(*p);
        }
        break;
      case CommandKind::kList:
        for (const syntax::CommandPtr& p : c.list.commands) {
          walk(*p);
        }
        break;
      case CommandKind::kSubshell:
        break;  // Subshell assignments do not escape.
      case CommandKind::kBraceGroup:
        if (c.brace.body != nullptr) {
          walk(*c.brace.body);
        }
        break;
      case CommandKind::kIf:
        if (c.if_cmd.condition != nullptr) {
          walk(*c.if_cmd.condition);
        }
        if (c.if_cmd.then_body != nullptr) {
          walk(*c.if_cmd.then_body);
        }
        if (c.if_cmd.else_body != nullptr) {
          walk(*c.if_cmd.else_body);
        }
        break;
      case CommandKind::kLoop:
        if (c.loop.condition != nullptr) {
          walk(*c.loop.condition);
        }
        if (c.loop.body != nullptr) {
          walk(*c.loop.body);
        }
        break;
      case CommandKind::kFor:
        out.push_back(c.for_cmd.var);
        if (c.for_cmd.body != nullptr) {
          walk(*c.for_cmd.body);
        }
        break;
      case CommandKind::kCase:
        for (const syntax::CaseItem& item : c.case_cmd.items) {
          if (item.body != nullptr) {
            walk(*item.body);
          }
        }
        break;
      case CommandKind::kFunctionDef:
        break;
    }
  };
  walk(cmd);
  (void)wrapper;
  return out;
}

// Exact value key for the state signature: concrete text or the language's
// display pattern, domain-tagged (mirrors SymValue::Digest's separation).
std::string ValueKey(const SymValue& v) {
  return v.is_concrete() ? "c:" + v.concrete() : "l:" + v.lang().pattern();
}

// The rendered-string signature of a state: the slow ground truth that
// paranoid merging cross-checks every digest merge against. Languages are
// keyed by their display pattern (matching the digest), not by Describe(),
// whose >48-char sampling fallback could alias distinct languages with
// identical samples.
std::string StateSignature(const State& st) {
  std::string sig;
  sig += st.terminated ? "T" : "A";
  sig += st.exit.known ? "k" + std::to_string(st.exit.code) : "u";
  sig += "|cwd=" + ValueKey(st.cwd);
  for (const auto& [name, value] : st.vars()) {
    sig += "|" + name.str() + "=" + ValueKey(value);
    if (st.MaybeUnset(name)) {
      sig += "?";
    }
  }
  sig += "|fs:" + st.sfs.ToString();
  sig += "|out:" + std::to_string(st.stdout_lines.size());
  for (const SymValue& v : st.stdout_lines) {
    sig += "," + ValueKey(v);
  }
  return sig;
}

// For each prefix, the paths at or under it in the lexically normal form
// that ResolvedPath gives concrete operands. Built from memoized literals and
// concatenations, so repeated runs share one compiled language per prefix.
std::vector<regex::Regex> UnderLanguages(const std::vector<std::string>& prefixes) {
  static const regex::Regex kBelow = *regex::Regex::FromPattern("(/.*)?");
  std::vector<regex::Regex> out;
  for (const std::string& p : prefixes) {
    const std::string pre = fs::NormalizePath(p);
    out.push_back(pre == "/" ? regex::Regex::Literal("/").Concat(regex::Regex::AnyLine())
                             : regex::Regex::Literal(pre).Concat(kBelow));
  }
  return out;
}

// DangerLanguage()'s dot-free members: "/", "//", "/*", "//*", ...
const regex::Regex& DotFreeDanger() {
  static const regex::Regex kDotFree =
      DangerLanguage().Intersect(*regex::Regex::FromPattern("[^.]*"));
  return kDotFree;
}

}  // namespace

const regex::Regex& DangerLanguage() {
  static const regex::Regex kDanger = *regex::Regex::FromPattern(
      "/+((\\./+)*\\*)?|(/[^\\n]*)?/\\.\\.(/+\\.?)*/\\*");
  return kDanger;
}

// ---------------------------------------------------------------------------
// Engine facade
// ---------------------------------------------------------------------------

void EngineStats::Add(const EngineStats& other) {
  commands_executed += other.commands_executed;
  forks += other.forks;
  states_peak = std::max(states_peak, other.states_peak);
  states_merged += other.states_merged;
  states_dropped += other.states_dropped;
  depth_cap_hits += other.depth_cap_hits;
  cancelled += other.cancelled;
  final_states += other.final_states;
  fs_ops += other.fs_ops;
  digest_collisions += other.digest_collisions;
}

Engine::Engine(EngineOptions options, DiagnosticSink* sink)
    : options_(std::move(options)), sink_(sink) {}

State Engine::MakeInitialState() const {
  Evaluator ev(options_, sink_, const_cast<EngineStats*>(&stats_));
  return ev.MakeInitialState();
}

std::vector<State> Engine::Run(const syntax::Program& program) {
  Evaluator ev(options_, sink_, &stats_);
  return RunFrom(ev.MakeInitialState(), program);
}

std::vector<State> Engine::RunFrom(State initial, const syntax::Program& program) {
  stats_ = EngineStats{};
  Evaluator ev(options_, sink_, &stats_);
  std::vector<State> finals = ev.ExecProgram(std::move(initial), program, 0);
  stats_.final_states = static_cast<int>(finals.size());
  return finals;
}

// ---------------------------------------------------------------------------
// Evaluator: top level and control flow
// ---------------------------------------------------------------------------

Evaluator::Evaluator(const EngineOptions& options, DiagnosticSink* sink, EngineStats* stats)
    : options_(options), sink_(sink), stats_(stats), paranoid_merge_(ParanoidMergeFromEnv()) {
  if (!options_.policy.empty()) {
    no_write_ = UnderLanguages(options_.policy.no_write);
    no_read_ = UnderLanguages(options_.policy.no_read);
  }
}

State Evaluator::MakeInitialState() const {
  State st;
  st.id = 0;
  st.cwd = SymValue::AbsolutePath().RestrictNonEmpty();
  st.Bind("PWD", st.cwd);
  st.Bind("HOME", SymValue::Concrete("/home/user"));
  st.Bind("PATH", SymValue::Concrete("/usr/local/bin:/usr/bin:/bin"));
  std::optional<regex::Regex> script = regex::Regex::FromPattern(options_.script_path_pattern);
  st.Bind("0", script.has_value() ? SymValue::Language(*script) : SymValue::UnknownLine());
  for (int i = 1; i <= options_.positional_params; ++i) {
    st.BindMaybeUnset(std::to_string(i), SymValue::UnknownLine());
  }
  // Annotated variable constraints (§4 ergonomic annotations).
  for (const auto& [name, pattern] : options_.var_patterns) {
    std::optional<regex::Regex> lang = regex::Regex::FromPattern(pattern);
    if (lang.has_value()) {
      st.Bind(name, SymValue::Language(std::move(*lang)));
    }
  }
  return st;
}

std::vector<State> Evaluator::ExecProgram(State st, const syntax::Program& program, int depth) {
  if (program.body == nullptr) {
    st.exit = ExitStatus::Known(0);
    return {std::move(st)};
  }
  return Exec(std::move(st), *program.body, depth);
}

std::vector<State> Evaluator::Exec(State st, const Command& cmd, int depth) {
  if (st.terminated) {
    return {std::move(st)};
  }
  if (options_.cancel != nullptr && options_.cancel->CheckStep()) {
    // Budget exhausted: wind this path down with an unknown exit. The
    // caller's loops see terminated states and fall through quickly, so the
    // whole engine drains within one pass over the live set.
    stats_->cancelled = 1;
    st.terminated = true;
    st.exit = ExitStatus::Unknown();
    return {std::move(st)};
  }
  if (depth > options_.max_call_depth) {
    ++stats_->depth_cap_hits;
    st.exit = ExitStatus::Unknown();
    return {std::move(st)};
  }
  ++stats_->commands_executed;
  switch (cmd.kind) {
    case CommandKind::kSimple:
      return ExecSimple(std::move(st), cmd, depth);
    case CommandKind::kPipeline:
      return ExecPipeline(std::move(st), cmd, depth);
    case CommandKind::kList:
      return ExecList(std::move(st), cmd, depth);
    case CommandKind::kSubshell:
      return ExecSubshell(std::move(st), cmd, depth);
    case CommandKind::kBraceGroup: {
      std::vector<State> out =
          cmd.brace.body != nullptr ? Exec(std::move(st), *cmd.brace.body, depth)
                                    : std::vector<State>{};
      for (State& s : out) {
        ApplyRedirects(s, cmd, depth);
      }
      return out;
    }
    case CommandKind::kIf:
      return ExecIf(std::move(st), cmd, depth);
    case CommandKind::kLoop:
      return ExecLoop(std::move(st), cmd, depth);
    case CommandKind::kFor:
      return ExecFor(std::move(st), cmd, depth);
    case CommandKind::kCase:
      return ExecCase(std::move(st), cmd, depth);
    case CommandKind::kFunctionDef:
      st.functions.write()[cmd.function.sym()] = cmd.function.body;
      st.exit = ExitStatus::Known(0);
      return {std::move(st)};
  }
  return {std::move(st)};
}

void Evaluator::ForkOnExit(std::vector<State> states, std::string_view context,
                           std::vector<State>* success, std::vector<State>* failure) {
  for (State& s : states) {
    if (s.exit.MustSucceed()) {
      success->push_back(std::move(s));
    } else if (s.exit.MustFail()) {
      failure->push_back(std::move(s));
    } else {
      ++stats_->forks;
      State ok = s;
      ok.id = NewStateId();
      ok.exit = ExitStatus::Known(0);
      State bad = std::move(s);
      bad.exit = ExitStatus::Known(1);
      bad.assumed_failure = true;
      if (ok.WantsNote()) {
        ok.Assume("assumed " + std::string(context) + " succeeded");
        bad.Assume("assumed " + std::string(context) + " failed");
      }
      success->push_back(std::move(ok));
      failure->push_back(std::move(bad));
    }
  }
}

std::vector<State> Evaluator::Control(std::vector<State> states) {
  if (options_.merge_identical_states && states.size() > 1) {
    std::vector<State> merged;
    merged.reserve(states.size());
    // Compare 64-bit digests and keep the first occurrence. Under paranoid
    // merging, every digest hit is cross-checked against the rendered
    // signature; a mismatch is a collision — counted, and the state kept
    // separate. `merge_digests_[i]` is merged[i]'s digest; the live set is
    // capped at max_states, so a linear scan of one reused vector beats
    // hashing.
    merge_digests_.clear();
    for (State& s : states) {
      uint64_t digest = s.Digest();
      auto seen = std::find(merge_digests_.begin(), merge_digests_.end(), digest);
      if (seen == merge_digests_.end()) {
        merge_digests_.push_back(digest);
        merged.push_back(std::move(s));
        continue;
      }
      if (paranoid_merge_ &&
          StateSignature(s) != StateSignature(merged[seen - merge_digests_.begin()])) {
        ++stats_->digest_collisions;
        merge_digests_.push_back(digest);
        merged.push_back(std::move(s));
        continue;
      }
      ++stats_->states_merged;
    }
    states = std::move(merged);
  }
  if (static_cast<int>(states.size()) > options_.max_states) {
    // Overflow drop. Order the victims by digest (stable: arrival order
    // breaks ties) so which states survive does not depend on exploration
    // order — merging on/off or batch parallelism must not change which
    // diagnostic survives a truncation. Only sorts when overflowing:
    // downstream execution order is observable in witness notes, so the
    // common (non-overflow) path must preserve arrival order.
    stats_->states_dropped += static_cast<int>(states.size()) - options_.max_states;
    std::stable_sort(states.begin(), states.end(),
                     [](const State& a, const State& b) {
                       return a.Digest() < b.Digest();
                     });
    states.resize(static_cast<size_t>(options_.max_states));
  }
  stats_->states_peak = std::max(stats_->states_peak, static_cast<int>(states.size()));
  return states;
}

std::vector<State> Evaluator::ExecList(State st, const Command& cmd, int depth) {
  std::vector<State> cur{std::move(st)};
  const size_t n = cmd.list.commands.size();
  for (size_t i = 0; i < n; ++i) {
    std::vector<State> run;
    std::vector<State> skip;
    if (i == 0) {
      run = std::move(cur);
    } else {
      ListOp prev = cmd.list.ops[i - 1];
      switch (prev) {
        case ListOp::kSeq:
          run = std::move(cur);
          break;
        case ListOp::kBackground:
          // The previous command "ran in the background": its effects are
          // already applied (sequential approximation); status resets to 0.
          for (State& s : cur) {
            s.exit = ExitStatus::Known(0);
          }
          run = std::move(cur);
          break;
        case ListOp::kAnd:
          ForkOnExit(std::move(cur), "previous command", &run, &skip);
          break;
        case ListOp::kOr: {
          std::vector<State> tmp_success;
          ForkOnExit(std::move(cur), "previous command", &tmp_success, &run);
          skip = std::move(tmp_success);
          break;
        }
      }
    }
    std::vector<State> next = std::move(skip);
    for (State& s : run) {
      if (s.terminated) {
        next.push_back(std::move(s));
        continue;
      }
      std::vector<State> results = Exec(std::move(s), *cmd.list.commands[i], depth);
      for (State& r : results) {
        next.push_back(std::move(r));
      }
    }
    cur = Control(std::move(next));
  }
  return cur;
}

std::vector<State> Evaluator::ExecPipeline(State st, const Command& cmd, int depth) {
  // Sequential approximation: stages run left to right against the same
  // (evolving) file-system state; data flow between stages is the stream
  // type system's concern (sash::stream), not the symbolic engine's.
  std::vector<State> cur{std::move(st)};
  for (const syntax::CommandPtr& stage : cmd.pipeline.commands) {
    std::vector<State> next;
    for (State& s : cur) {
      if (s.terminated) {
        next.push_back(std::move(s));
        continue;
      }
      // Each stage writes to a fresh pipe, not the captured stdout; only the
      // final stage's output is observable by a substitution. Model: clear
      // intermediate stdout.
      s.stdout_lines.clear();
      s.stdout_prov.reset();
      std::vector<State> results = Exec(std::move(s), *stage, depth);
      for (State& r : results) {
        next.push_back(std::move(r));
      }
    }
    cur = Control(std::move(next));
  }
  if (cmd.pipeline.negated) {
    for (State& s : cur) {
      if (s.exit.known) {
        s.exit = ExitStatus::Known(s.exit.code == 0 ? 1 : 0);
      }
    }
  }
  return cur;
}

std::vector<State> Evaluator::ExecIf(State st, const Command& cmd, int depth) {
  std::vector<State> cond_states =
      cmd.if_cmd.condition != nullptr ? Exec(std::move(st), *cmd.if_cmd.condition, depth)
                                      : std::vector<State>{};
  std::vector<State> taken;
  std::vector<State> not_taken;
  ForkOnExit(std::move(cond_states), "if condition", &taken, &not_taken);

  std::vector<State> out;
  for (State& s : taken) {
    if (s.terminated || cmd.if_cmd.then_body == nullptr) {
      out.push_back(std::move(s));
      continue;
    }
    std::vector<State> results = Exec(std::move(s), *cmd.if_cmd.then_body, depth);
    for (State& r : results) {
      out.push_back(std::move(r));
    }
  }
  for (State& s : not_taken) {
    if (s.terminated || cmd.if_cmd.else_body == nullptr) {
      if (!s.terminated) {
        s.exit = ExitStatus::Known(0);  // `if` with untaken branch exits 0.
      }
      out.push_back(std::move(s));
      continue;
    }
    std::vector<State> results = Exec(std::move(s), *cmd.if_cmd.else_body, depth);
    for (State& r : results) {
      out.push_back(std::move(r));
    }
  }
  std::vector<State> controlled = Control(std::move(out));
  for (State& s : controlled) {
    ApplyRedirects(s, cmd, depth);
  }
  return controlled;
}

std::vector<State> Evaluator::ExecLoop(State st, const Command& cmd, int depth) {
  std::vector<State> live{std::move(st)};
  std::vector<State> out;
  for (int iter = 0; iter <= options_.loop_unroll && !live.empty(); ++iter) {
    std::vector<State> cond_states;
    for (State& s : live) {
      if (s.terminated) {
        out.push_back(std::move(s));
        continue;
      }
      std::vector<State> results =
          cmd.loop.condition != nullptr ? Exec(std::move(s), *cmd.loop.condition, depth)
                                        : std::vector<State>{std::move(s)};
      for (State& r : results) {
        cond_states.push_back(std::move(r));
      }
    }
    std::vector<State> enter;
    std::vector<State> leave;
    if (cmd.loop.until) {
      ForkOnExit(std::move(cond_states), "loop condition", &leave, &enter);
    } else {
      ForkOnExit(std::move(cond_states), "loop condition", &enter, &leave);
    }
    for (State& s : leave) {
      s.exit = ExitStatus::Known(0);
      out.push_back(std::move(s));
    }
    if (iter == options_.loop_unroll) {
      // Widen: beyond the unroll budget, assume the loop eventually exits
      // with body-assigned variables holding unknown values.
      std::vector<std::string> havoc =
          cmd.loop.body != nullptr ? AssignedNames(*cmd.loop.body) : std::vector<std::string>{};
      for (State& s : enter) {
        for (const std::string& name : havoc) {
          s.Bind(name, SymValue::Unknown());
        }
        s.exit = ExitStatus::Known(0);
        s.Assume("loop widened after " + std::to_string(options_.loop_unroll) + " iterations");
        out.push_back(std::move(s));
      }
      break;
    }
    std::vector<State> next;
    for (State& s : enter) {
      if (cmd.loop.body == nullptr) {
        next.push_back(std::move(s));
        continue;
      }
      std::vector<State> results = Exec(std::move(s), *cmd.loop.body, depth);
      for (State& r : results) {
        if (r.terminated) {
          out.push_back(std::move(r));
        } else {
          next.push_back(std::move(r));
        }
      }
    }
    live = Control(std::move(next));
  }
  std::vector<State> controlled = Control(std::move(out));
  for (State& s : controlled) {
    ApplyRedirects(s, cmd, depth);
  }
  return controlled;
}

std::vector<State> Evaluator::ExecFor(State st, const Command& cmd, int depth) {
  // Expand the word list; fully concrete short lists iterate precisely.
  std::vector<Expanded> items;
  bool all_concrete = true;
  for (const syntax::Word& w : cmd.for_cmd.words) {
    Expanded e = ExpandWord(st, w, depth);
    if (!e.value.is_concrete() || e.has_unquoted_glob) {
      all_concrete = false;
    }
    items.push_back(std::move(e));
  }
  std::vector<State> cur{std::move(st)};
  if (all_concrete && cmd.for_cmd.has_in &&
      static_cast<int>(items.size()) <= options_.max_for_iterations) {
    for (const Expanded& item : items) {
      std::vector<State> next;
      for (State& s : cur) {
        if (s.terminated) {
          next.push_back(std::move(s));
          continue;
        }
        s.Bind(cmd.for_cmd.var_sym(), item.value);
        if (cmd.for_cmd.body == nullptr) {
          next.push_back(std::move(s));
          continue;
        }
        std::vector<State> results = Exec(std::move(s), *cmd.for_cmd.body, depth);
        for (State& r : results) {
          next.push_back(std::move(r));
        }
      }
      cur = Control(std::move(next));
    }
  } else {
    // Symbolic iteration: one pass with the variable unknown, then widen.
    std::vector<State> next;
    for (State& s : cur) {
      s.Bind(cmd.for_cmd.var_sym(), SymValue::UnknownLine());
      s.Assume("for-loop over a dynamic list (analyzed one symbolic iteration)");
      if (cmd.for_cmd.body == nullptr) {
        next.push_back(std::move(s));
        continue;
      }
      std::vector<State> results = Exec(std::move(s), *cmd.for_cmd.body, depth);
      for (State& r : results) {
        if (!r.terminated) {
          for (const std::string& name : AssignedNames(*cmd.for_cmd.body)) {
            r.Bind(name, SymValue::Unknown());
          }
        }
        next.push_back(std::move(r));
      }
    }
    cur = Control(std::move(next));
  }
  for (State& s : cur) {
    ApplyRedirects(s, cmd, depth);
  }
  return cur;
}

std::vector<State> Evaluator::ExecCase(State st, const Command& cmd, int depth) {
  Expanded subject = ExpandWord(st, cmd.case_cmd.subject, depth);
  std::vector<State> remaining{std::move(st)};
  std::vector<State> out;

  for (const syntax::CaseItem& item : cmd.case_cmd.items) {
    if (remaining.empty()) {
      break;
    }
    // Combine patterns: the item matches if any pattern does.
    bool always = false;
    bool may = false;
    std::optional<regex::Regex> item_lang;
    for (const syntax::Word& pat : item.patterns) {
      std::string glob;
      if (!StaticGlobPattern(pat, &glob)) {
        may = true;  // Dynamic pattern: may match anything.
        item_lang.reset();
        break;
      }
      regex::Regex lang = regex::GlobLanguage(glob);
      if (subject.value.MustBeIn(lang)) {
        always = true;
        break;
      }
      if (subject.value.CanBeIn(lang)) {
        may = true;
        item_lang = item_lang.has_value() ? item_lang->Union(lang) : lang;
      }
    }

    auto run_body = [&](State s, bool add_note) -> std::vector<State> {
      if (add_note && s.WantsNote()) {
        s.Assume("assumed case matched '" + item.patterns[0].ToDisplayString() + "'");
      }
      // Refine the subject variable in the matched branch.
      if (item_lang.has_value() && subject.prov.has_value() && subject.prov->suffix.empty() &&
          !subject.prov->canonicalized) {
        const SymValue* var = s.Lookup(subject.prov->var);
        if (var != nullptr) {
          s.Bind(subject.prov->var, var->RestrictTo(*item_lang));
        }
      }
      if (item.body == nullptr) {
        s.exit = ExitStatus::Known(0);
        return {std::move(s)};
      }
      return Exec(std::move(s), *item.body, depth);
    };

    if (always) {
      for (State& s : remaining) {
        std::vector<State> results = run_body(std::move(s), /*add_note=*/false);
        for (State& r : results) {
          out.push_back(std::move(r));
        }
      }
      remaining.clear();
      break;
    }
    if (may) {
      ++stats_->forks;
      std::vector<State> still_remaining;
      for (State& s : remaining) {
        State matched = s;
        matched.id = NewStateId();
        std::vector<State> results = run_body(std::move(matched), /*add_note=*/true);
        for (State& r : results) {
          out.push_back(std::move(r));
        }
        // Not-matched branch: refine the subject away from the item language.
        if (item_lang.has_value() && subject.prov.has_value() &&
            subject.prov->suffix.empty() && !subject.prov->canonicalized) {
          const SymValue* var = s.Lookup(subject.prov->var);
          if (var != nullptr) {
            s.Bind(subject.prov->var, var->RestrictTo(item_lang->Complement()));
          }
        }
        if (s.WantsNote()) {
          s.Assume("assumed case did not match '" + item.patterns[0].ToDisplayString() + "'");
        }
        still_remaining.push_back(std::move(s));
      }
      remaining = std::move(still_remaining);
    }
    // `never`: fall through to the next item with `remaining` unchanged.
  }
  // States where no item matched exit 0 with no body run (Fig. 5's silent
  // fall-through).
  for (State& s : remaining) {
    s.exit = ExitStatus::Known(0);
    out.push_back(std::move(s));
  }
  std::vector<State> controlled = Control(std::move(out));
  for (State& s : controlled) {
    ApplyRedirects(s, cmd, depth);
  }
  return controlled;
}

std::vector<State> Evaluator::ExecSubshell(State st, const Command& cmd, int depth) {
  if (cmd.subshell.body == nullptr) {
    st.exit = ExitStatus::Known(0);
    return {std::move(st)};
  }
  State parent = st;
  std::vector<State> results = Exec(std::move(st), *cmd.subshell.body, depth + 1);
  // Variable/cwd changes do not escape the subshell; FS effects and exit do.
  for (State& r : results) {
    r.RestoreScopeFrom(parent);
    r.cwd = parent.cwd;
    r.terminated = false;  // `exit` in a subshell only exits the subshell.
    ApplyRedirects(r, cmd, depth);
  }
  return results;
}

std::vector<State> Evaluator::CallFunction(State st, const Command* body,
                                           const std::vector<Expanded>& argv, int depth) {
  // Save positionals, bind new ones from the call, run, restore.
  std::map<std::string, SymValue> saved;
  std::set<std::string> saved_maybe;
  for (int i = 1; i <= 9; ++i) {
    std::string name = std::to_string(i);
    const SymValue* v = st.Lookup(name);
    if (v != nullptr) {
      saved.emplace(name, *v);
      if (st.MaybeUnset(name)) {
        saved_maybe.insert(name);
      }
    }
    st.Unset(name);
  }
  for (size_t i = 1; i < argv.size() && i <= 9; ++i) {
    st.Bind(std::to_string(i), argv[i].value);
  }
  std::vector<State> results = Exec(std::move(st), *body, depth + 1);
  for (State& r : results) {
    for (int i = 1; i <= 9; ++i) {
      std::string name = std::to_string(i);
      r.Unset(name);
      auto it = saved.find(name);
      if (it != saved.end()) {
        if (saved_maybe.count(name) > 0) {
          r.BindMaybeUnset(name, it->second);
        } else {
          r.Bind(name, it->second);
        }
      }
    }
    r.terminated = false;  // `return`/`exit` modeled as ending the function.
  }
  return results;
}

// ---------------------------------------------------------------------------
// Simple commands
// ---------------------------------------------------------------------------

std::vector<State> Evaluator::ExecSimple(State st, const Command& cmd, int depth) {
  // Assignment prefixes.
  for (const syntax::Assignment& a : cmd.simple.assignments) {
    if (st.terminated) {
      return {std::move(st)};
    }
    Expanded v = ExpandWord(st, a.value, depth);
    st.Bind(a.sym(), v.value);
  }
  if (st.terminated) {
    return {std::move(st)};
  }

  // Expand argv with empty-field dropping.
  std::vector<Expanded> argv;
  for (const syntax::Word& w : cmd.simple.words) {
    Expanded e = ExpandWord(st, w, depth);
    if (st.terminated) {
      return {std::move(st)};
    }
    if (e.droppable_if_empty && e.value.MustBeEmpty()) {
      continue;
    }
    argv.push_back(std::move(e));
  }
  if (argv.empty()) {
    ApplyRedirects(st, cmd, depth);
    // A bare assignment exits 0 unless a command substitution ran, in which
    // case its exit status is kept (POSIX 2.9.1).
    bool has_cmdsub = false;
    std::function<void(const syntax::WordPart&)> scan = [&](const syntax::WordPart& p) {
      if (p.kind == syntax::WordPartKind::kCommandSub) {
        has_cmdsub = true;
      }
      for (const syntax::WordPart& c : p.children) {
        scan(c);
      }
    };
    for (const syntax::Assignment& a : cmd.simple.assignments) {
      for (const syntax::WordPart& p : a.value.parts) {
        scan(p);
      }
    }
    if (!has_cmdsub) {
      st.exit = ExitStatus::Known(0);
    }
    return {std::move(st)};
  }

  if (!argv[0].value.is_concrete()) {
    Emit(Severity::kInfo, kCodeUnknownCommand, cmd.range,
         "command name is dynamic (" + argv[0].value.Describe() + "); effects unknown", st);
    st.exit = ExitStatus::Unknown();
    ApplyRedirects(st, cmd, depth);
    return {std::move(st)};
  }
  const std::string name = argv[0].value.concrete();

  // User-defined functions shadow everything else here. Find() is
  // non-inserting: a name never interned was never defined.
  if (!st.functions->empty()) {
    auto name_sym = util::Symbol::Find(name);
    if (name_sym.has_value()) {
      auto fn = st.functions->find(*name_sym);
      if (fn != st.functions->end() && fn->second != nullptr) {
        const Command* body = fn->second;
        std::vector<State> results = CallFunction(std::move(st), body, argv, depth);
        for (State& r : results) {
          ApplyRedirects(r, cmd, depth);
        }
        return Control(std::move(results));
      }
    }
  }

  std::vector<State> out;
  if (TryBuiltin(name, st, cmd, argv, depth, &out)) {
    for (State& s : out) {
      ApplyRedirects(s, cmd, depth);
    }
    return Control(std::move(out));
  }

  std::vector<State> results = ExecExternal(std::move(st), cmd, argv, depth);
  for (State& s : results) {
    ApplyRedirects(s, cmd, depth);
  }
  return Control(std::move(results));
}

std::vector<State> Evaluator::ExecExternal(State st, const Command& cmd,
                                           const std::vector<Expanded>& argv, int depth) {
  (void)depth;
  const std::string name = argv[0].value.concrete();
  const specs::CommandSpec* spec = lib().Find(name);
  if (spec == nullptr) {
    Emit(Severity::kInfo, kCodeUnknownCommand, cmd.range,
         "no specification for command '" + name + "'; its effects are not modeled", st);
    st.exit = ExitStatus::Unknown();
    st.stdout_lines.push_back(SymValue::UnknownLine());
    st.stdout_prov.reset();
    return {std::move(st)};
  }

  // Build a concrete argv for the syntax-spec parser; symbolic values become
  // operand placeholders (they cannot be flags we reason about).
  std::vector<std::string> args;
  std::vector<int> operand_placeholder;  // args index -> argv index.
  for (size_t i = 1; i < argv.size(); ++i) {
    if (argv[i].value.is_concrete()) {
      args.push_back(argv[i].value.concrete());
    } else {
      args.push_back("\x01SYM" + std::to_string(i) + "\x01");
    }
    operand_placeholder.push_back(static_cast<int>(i));
  }
  Result<specs::Invocation> inv = specs::ParseInvocation(spec->syntax, args);
  if (!inv.ok()) {
    Emit(Severity::kWarning, kCodeEmptyExpansionArg, cmd.range,
         name + ": invocation is invalid on this path (" + inv.status().message() + ")", st);
    st.exit = ExitStatus::Known(2);
    return {std::move(st)};
  }

  // Map operand strings back to their Expanded values.
  std::vector<Expanded> operands;
  for (const std::string& op : inv->operands) {
    if (sash::StartsWith(op, "\x01SYM")) {
      int idx = std::atoi(op.substr(4).c_str());
      operands.push_back(argv[static_cast<size_t>(idx)]);
    } else {
      Expanded e;
      e.value = SymValue::Concrete(op);
      // Recover glob/provenance info by matching against the original argv.
      for (size_t i = 1; i < argv.size(); ++i) {
        if (argv[i].value.is_concrete() && argv[i].value.concrete() == op) {
          e = argv[i];
          break;
        }
      }
      operands.push_back(std::move(e));
    }
  }

  CheckDangerousDelete(st, cmd, *inv, operands);

  // Per-operand path keys and known states; only path-kind operands are
  // file-system relevant (a grep pattern or curl URL never gets a key).
  std::vector<const specs::OperandSpec*> slots =
      specs::AssignOperands(spec->syntax, static_cast<int>(operands.size()));
  std::vector<std::optional<PathKey>> keys;
  std::vector<PathState> known;
  for (size_t i = 0; i < operands.size(); ++i) {
    std::optional<PathKey> key;
    if (slots[i] != nullptr && slots[i]->kind == specs::ValueKind::kPath) {
      key = PathKeyOf(st, operands[i]);
    }
    known.push_back(key.has_value() ? st.sfs.Query(*key) : PathState::kAny);
    keys.push_back(std::move(key));
  }

  // Three-valued case selection: walk ordered cases, collecting possible
  // ones, stopping at the first definite one.
  struct Branch {
    const specs::SpecCase* c;
    bool definite;
  };
  std::vector<Branch> branches;
  for (const specs::SpecCase& c : spec->cases) {
    if (!c.FlagsMatch(*inv)) {
      continue;
    }
    bool contradicted = false;
    bool all_known = true;
    for (const specs::PreCond& pre : c.pre) {
      for (int idx : specs::SelectOperands(pre.sel, static_cast<int>(operands.size()))) {
        Knowledge k = keys[static_cast<size_t>(idx)].has_value()
                          ? st.sfs.CheckRequirement(*keys[static_cast<size_t>(idx)], pre.state)
                          : (pre.state == PathState::kAny ? Knowledge::kKnown
                                                          : Knowledge::kUnknown);
        if (k == Knowledge::kContradiction) {
          contradicted = true;
          break;
        }
        if (k == Knowledge::kUnknown) {
          all_known = false;
        }
      }
      if (contradicted) {
        break;
      }
    }
    if (contradicted) {
      continue;
    }
    branches.push_back(Branch{&c, all_known});
    if (all_known) {
      break;
    }
  }

  if (branches.empty()) {
    st.exit = ExitStatus::Unknown();
    return {std::move(st)};
  }

  // Always-fails criterion: the only reachable behavior fails.
  bool all_fail = true;
  for (const Branch& b : branches) {
    if (b.c->exit_code == 0 || b.c->exit_code == -1) {
      all_fail = false;
    }
  }
  if (all_fail) {
    std::string detail = branches.size() == 1 && branches[0].definite
                             ? "the invocation always fails"
                             : "every reachable behavior of this invocation fails";
    Emit(Severity::kError, kCodeAlwaysFails, cmd.range,
         name + ": " + detail + " (exit " + std::to_string(branches[0].c->exit_code) + ")", st,
         {"precondition cannot hold: " + branches[0].c->ToHoareString(name)});
  }

  // Effects policy (verify only), checked on each path operand an effect
  // touches, before the effect needs a path key.
  const bool policed = !no_write_.empty() || !no_read_.empty();
  auto police = [&](const State& s, size_t i, bool write) {
    if (slots[i] != nullptr && slots[i]->kind == specs::ValueKind::kPath) {
      CheckPolicy(s, cmd.range, name, operands[i], write);
    }
  };

  auto apply_case = [&](State s, const specs::SpecCase& c, bool assume_pre) -> State {
    if (assume_pre) {
      for (const specs::PreCond& pre : c.pre) {
        if (pre.state == PathState::kAny) {
          continue;
        }
        for (int idx : specs::SelectOperands(pre.sel, static_cast<int>(operands.size()))) {
          if (keys[static_cast<size_t>(idx)].has_value()) {
            s.sfs.Assume(*keys[static_cast<size_t>(idx)], pre.state);
            ++stats_->fs_ops;
          }
        }
      }
    }
    for (const specs::Effect& eff : c.effects) {
      for (int idx : specs::SelectOperands(eff.sel, static_cast<int>(operands.size()))) {
        if (policed && eff.kind != specs::EffectKind::kNone) {
          // Copies and moves write their destination; a move also deletes.
          const bool to_last = eff.kind == specs::EffectKind::kCopyToLast ||
                               eff.kind == specs::EffectKind::kMoveToLast;
          police(s, to_last ? operands.size() - 1 : static_cast<size_t>(idx),
                 /*write=*/eff.kind != specs::EffectKind::kReadFile);
          if (eff.kind == specs::EffectKind::kMoveToLast) {
            police(s, static_cast<size_t>(idx), /*write=*/true);
          }
        }
        const std::optional<PathKey>& key = keys[static_cast<size_t>(idx)];
        if (!key.has_value()) {
          continue;
        }
        switch (eff.kind) {
          case specs::EffectKind::kDeleteTree:
          case specs::EffectKind::kDeleteFile:
          case specs::EffectKind::kDeleteEmptyDir:
            s.sfs.ApplyDeleteTree(*key);
            ++stats_->fs_ops;
            break;
          case specs::EffectKind::kCreateFile:
          case specs::EffectKind::kTruncateWrite:
            s.sfs.ApplyCreateFile(*key);
            ++stats_->fs_ops;
            break;
          case specs::EffectKind::kCreateDir:
            s.sfs.ApplyCreateDir(*key);
            ++stats_->fs_ops;
            break;
          case specs::EffectKind::kWriteUnder:
            s.sfs.Assume(*key, PathState::kExists);
            ++stats_->fs_ops;
            break;
          case specs::EffectKind::kCopyToLast:
          case specs::EffectKind::kMoveToLast: {
            if (!operands.empty()) {
              std::optional<PathKey> dst = keys.back();
              if (dst.has_value()) {
                s.sfs.Assume(*dst, PathState::kExists);
                ++stats_->fs_ops;
              }
            }
            if (eff.kind == specs::EffectKind::kMoveToLast) {
              s.sfs.ApplyDeleteTree(*key);
              ++stats_->fs_ops;
            }
            break;
          }
          case specs::EffectKind::kReadFile:
          case specs::EffectKind::kNone:
            break;
        }
      }
    }
    s.exit = c.exit_code >= 0 ? ExitStatus::Known(c.exit_code) : ExitStatus::Unknown();
    if (c.exit_code > 0) {
      s.assumed_failure = true;
    }
    if (c.stdout_nonempty) {
      if (!spec->stdout_line_type.empty()) {
        std::optional<regex::Regex> t = regex::Regex::FromPattern(spec->stdout_line_type);
        s.stdout_lines.push_back(t.has_value() ? SymValue::Language(*t)
                                               : SymValue::UnknownLine());
      } else {
        s.stdout_lines.push_back(SymValue::UnknownLine());
      }
      s.stdout_prov.reset();
    }
    return s;
  };

  std::vector<State> out;
  if (branches.size() == 1) {
    out.push_back(apply_case(std::move(st), *branches[0].c, !branches[0].definite));
  } else {
    stats_->forks += static_cast<int>(branches.size()) - 1;
    for (size_t i = 0; i < branches.size(); ++i) {
      State s = st;
      if (i > 0) {
        s.id = NewStateId();
      }
      if (s.WantsNote()) {
        s.Assume("assumed " + name + " behaved as " + branches[i].c->ToHoareString(name));
      }
      out.push_back(apply_case(std::move(s), *branches[i].c, /*assume_pre=*/true));
    }
  }
  return out;
}

void Evaluator::CheckDangerousDelete(const State& st, const Command& cmd,
                                     const specs::Invocation& inv,
                                     const std::vector<Expanded>& operands) {
  if (inv.command != "rm") {
    return;
  }
  // Both branches below emit kCodeDeleteRoot at cmd.range; once one fired,
  // re-running the language intersections and witness search for every
  // surviving state is pure waste.
  if (AlreadyEmitted(kCodeDeleteRoot, cmd.range, Severity::kError)) {
    return;
  }
  const bool recursive = inv.HasFlag('r') || inv.HasFlag('R');
  for (const Expanded& op : operands) {
    // Dangerous shapes: the operand may expand to the root or a root glob.
    bool relevant = recursive || op.has_unquoted_glob;
    if (!relevant) {
      continue;
    }
    // A "*" written in the word globs; one that came from a quoted or
    // expanded value may be a plain name ("/scratch/$1" with $1 = "../*"),
    // so without an unquoted glob only the dot-free members apply.
    const regex::Regex& danger = op.has_unquoted_glob ? DangerLanguage() : DotFreeDanger();
    const SymValue path = ResolvedPath(st, op);
    if (path.MustBeIn(danger)) {
      std::vector<std::string> notes;
      notes.push_back("the operand always targets the file system root");
      Emit(Severity::kError, kCodeDeleteRoot, cmd.range,
           "rm " + std::string(recursive ? "-r" : "") +
               " always deletes from the file system root (operand " + op.value.Describe() + ")",
           st, std::move(notes));
    } else if (path.CanBeIn(danger)) {
      std::vector<std::string> notes;
      std::optional<std::string> witness =
          op.value.is_concrete()
              ? std::optional<std::string>(op.value.concrete())
              : op.value.lang().Intersect(danger).Witness();
      if (witness.has_value()) {
        notes.push_back("dangerous expansion: '" + EscapeForDisplay(*witness) + "'");
      }
      if (!op.vars.empty()) {
        notes.push_back("occurs when " + Join(op.vars, ", ") +
                        " expand(s) to the empty string or '/'");
      }
      Emit(Severity::kError, kCodeDeleteRoot, cmd.range,
           "rm may delete from the file system root: operand " + op.value.Describe() +
               " can expand to a root path",
           st, std::move(notes));
    }
  }
}

void Evaluator::CheckPolicy(const State& st, SourceRange range, const std::string& name,
                            const Expanded& path, bool write) {
  const SymValue resolved = ResolvedPath(st, path);
  const std::vector<regex::Regex>& protected_paths = write ? no_write_ : no_read_;
  const std::string what = write ? "modify a path that --no-rw protects"
                                 : "read a path that --no-read protects";
  bool may = false;
  for (const regex::Regex& lang : protected_paths) {
    if (resolved.MustBeIn(lang)) {
      Emit(Severity::kError, kCodePolicy, range,
           name + " would " + what + " (" + resolved.Describe() + ")", st);
      return;
    }
    may = may || resolved.CanBeIn(lang);
  }
  if (may) {
    Emit(Severity::kWarning, kCodePolicy, range,
         name + " may " + what + " (" + resolved.Describe() + "); left to the runtime guard",
         st);
  }
}

void Evaluator::ApplyRedirects(State& st, const Command& cmd, int depth) {
  for (const syntax::Redirect& r : cmd.redirects) {
    switch (r.op) {
      case syntax::RedirOp::kOut:
      case syntax::RedirOp::kAppend:
      case syntax::RedirOp::kClobber: {
        Expanded target = ExpandWord(st, r.target, depth);
        if (!no_write_.empty()) {
          CheckPolicy(st, r.range, "redirection", target, /*write=*/true);
        }
        std::optional<PathKey> key = PathKeyOf(st, target);
        if (key.has_value()) {
          st.sfs.ApplyCreateFile(*key);
          ++stats_->fs_ops;
        }
        break;
      }
      case syntax::RedirOp::kIn:
      case syntax::RedirOp::kReadWrite: {
        Expanded target = ExpandWord(st, r.target, depth);
        if (!no_read_.empty()) {
          CheckPolicy(st, r.range, "redirection", target, /*write=*/false);
        }
        std::optional<PathKey> key = PathKeyOf(st, target);
        if (key.has_value()) {
          Knowledge k = st.sfs.CheckRequirement(*key, PathState::kIsFile);
          if (k == Knowledge::kContradiction) {
            Emit(Severity::kError, kCodeAlwaysFails, r.range,
                 "input redirection from " + target.value.Describe() +
                     " always fails: the file cannot exist",
                 st);
            st.exit = ExitStatus::Known(1);
          } else if (k == Knowledge::kUnknown) {
            st.sfs.Assume(*key, PathState::kIsFile);
            ++stats_->fs_ops;
          }
        }
        break;
      }
      case syntax::RedirOp::kHereDoc:
      case syntax::RedirOp::kHereDocTab:
      case syntax::RedirOp::kDupIn:
      case syntax::RedirOp::kDupOut:
        break;
    }
  }
}

namespace {
std::string EmitKey(const char* code, SourceRange range, Severity severity) {
  return std::string(code) + "@" + std::to_string(range.begin.offset) + "@" +
         std::to_string(static_cast<int>(severity));
}
}  // namespace

bool Evaluator::AlreadyEmitted(const char* code, SourceRange range,
                               Severity severity) const {
  return emitted_.count(EmitKey(code, range, severity)) > 0;
}

void Evaluator::Emit(Severity severity, const char* code, SourceRange range, std::string message,
                     const State& st, std::vector<std::string> extra_notes) {
  std::string key = EmitKey(code, range, severity);
  if (!emitted_.insert(key).second) {
    return;
  }
  Diagnostic& d = sink_->Emit(severity, code, range, std::move(message));
  for (std::string& note : extra_notes) {
    d.notes.push_back(DiagnosticNote{{}, std::move(note)});
  }
  // Attach the path condition so users see *when* the bug bites: the first
  // kMaxNotes - 1 notes, and a marker when the state holds one more.
  size_t shown = 0;
  for (const std::string& assumption : st.assumptions()) {
    if (++shown == State::kMaxNotes) {
      d.notes.push_back(DiagnosticNote{{}, "(further assumptions elided)"});
      break;
    }
    d.notes.push_back(DiagnosticNote{{}, "path condition: " + assumption});
  }
}

}  // namespace sash::symex
