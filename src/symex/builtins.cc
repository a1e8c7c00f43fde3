// Builtin command models: cd, test/[, echo, printf, exit, export, unset,
// read, shift, pwd, basename, dirname, and a value-precise realpath model.
// These behave like primitive functions of the shell "language" (§3).
#include <cctype>
#include <unordered_set>

#include "fs/path.h"
#include "symex/evaluator.h"
#include "util/intern.h"
#include "util/strings.h"

namespace sash::symex {

namespace {

using specs::PathState;
using symfs::Knowledge;
using symfs::PathKey;

bool AllDigits(const std::string& s) {
  if (s.empty()) {
    return false;
  }
  size_t start = s[0] == '-' ? 1 : 0;
  if (start == s.size()) {
    return false;
  }
  for (size_t i = start; i < s.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(s[i]))) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::optional<PathKey> Evaluator::PathKeyOf(const State& st, const Expanded& e) const {
  if (e.value.is_concrete()) {
    const std::string& v = e.value.concrete();
    if (v.empty()) {
      return std::nullopt;
    }
    if (fs::IsAbsolute(v)) {
      return PathKey::Concrete(v);
    }
    if (st.cwd.is_concrete()) {
      return PathKey::Concrete(fs::Absolutize(v, st.cwd.concrete()));
    }
    // Relative path with unknown cwd: treat the cwd as a variable root so
    // facts about it still compose within this state.
    return PathKey::VarRooted("$CWD", v);
  }
  if (e.prov.has_value() && !e.prov->canonicalized) {
    const SymValue* var = st.Lookup(e.prov->var);
    if (var != nullptr) {
      return PathKey::VarRooted("$" + e.prov->var, e.prov->suffix);
    }
  }
  return std::nullopt;
}

SymValue Evaluator::ResolvedPath(const State& st, const Expanded& e) {
  if (!e.value.is_concrete() || e.value.concrete().empty() ||
      !(fs::IsAbsolute(e.value.concrete()) || st.cwd.is_concrete())) {
    return e.value;
  }
  // An absolute operand ignores the cwd, which may then be symbolic.
  return SymValue::Concrete(fs::Absolutize(
      e.value.concrete(), st.cwd.is_concrete() ? st.cwd.concrete() : std::string()));
}

namespace {

// Every name TryBuiltin handles. The interned-set probe rejects external
// commands in one hash lookup instead of walking the whole compare chain.
bool IsBuiltinName(const std::string& name) {
  static const auto* builtins = new std::unordered_set<util::Symbol>{
      util::Symbol::Intern("."),        util::Symbol::Intern(":"),
      util::Symbol::Intern("["),        util::Symbol::Intern("basename"),
      util::Symbol::Intern("cd"),       util::Symbol::Intern("dirname"),
      util::Symbol::Intern("echo"),     util::Symbol::Intern("eval"),
      util::Symbol::Intern("exit"),     util::Symbol::Intern("export"),
      util::Symbol::Intern("false"),    util::Symbol::Intern("local"),
      util::Symbol::Intern("printf"),   util::Symbol::Intern("pwd"),
      util::Symbol::Intern("read"),     util::Symbol::Intern("readonly"),
      util::Symbol::Intern("realpath"), util::Symbol::Intern("return"),
      util::Symbol::Intern("set"),      util::Symbol::Intern("shift"),
      util::Symbol::Intern("source"),   util::Symbol::Intern("test"),
      util::Symbol::Intern("true"),     util::Symbol::Intern("unset"),
  };
  auto sym = util::Symbol::Find(name);
  return sym.has_value() && builtins->count(*sym) > 0;
}

}  // namespace

bool Evaluator::TryBuiltin(const std::string& name, State& st, const syntax::Command& cmd,
                           const std::vector<Expanded>& argv, int depth, std::vector<State>* out) {
  (void)depth;  // Builtins are leaves; the budget only constrains recursion.
  if (!IsBuiltinName(name)) {
    return false;
  }
  auto args_from = [&](size_t i) {
    return std::vector<Expanded>(argv.begin() + static_cast<long>(i), argv.end());
  };

  if (name == "true" || name == ":") {
    st.exit = ExitStatus::Known(0);
    out->push_back(std::move(st));
    return true;
  }
  if (name == "false") {
    st.exit = ExitStatus::Known(1);
    out->push_back(std::move(st));
    return true;
  }
  if (name == "echo") {
    // Value: arguments joined by spaces ("-n" only affects the trailing
    // newline, which substitution strips anyway).
    SymValue line = SymValue::Concrete("");
    bool first = true;
    std::optional<Provenance> prov;
    size_t start = 1;
    if (argv.size() > 1 && argv[1].value.is_concrete() && argv[1].value.concrete() == "-n") {
      start = 2;
    }
    for (size_t i = start; i < argv.size(); ++i) {
      if (!first) {
        line = line.Append(SymValue::Concrete(" "));
      }
      line = line.Append(argv[i].value);
      if (i == start && argv.size() == start + 1) {
        prov = argv[i].prov;
      }
      first = false;
    }
    st.stdout_lines.push_back(line);
    st.stdout_prov = prov;
    st.exit = ExitStatus::Known(0);
    out->push_back(std::move(st));
    return true;
  }
  if (name == "printf") {
    // Format strings are not interpreted; output shape is unknown text.
    st.stdout_lines.push_back(SymValue::UnknownLine());
    st.stdout_prov.reset();
    st.exit = ExitStatus::Known(0);
    out->push_back(std::move(st));
    return true;
  }
  if (name == "pwd") {
    st.stdout_lines.push_back(st.cwd);
    st.stdout_prov.reset();
    st.exit = ExitStatus::Known(0);
    out->push_back(std::move(st));
    return true;
  }
  if (name == "cd") {
    std::vector<State> results = BuiltinCd(std::move(st), argv);
    for (State& s : results) {
      out->push_back(std::move(s));
    }
    return true;
  }
  if (name == "realpath") {
    std::vector<State> results = BuiltinRealpath(std::move(st), argv);
    for (State& s : results) {
      out->push_back(std::move(s));
    }
    return true;
  }
  if (name == "exit") {
    if (argv.size() > 1 && argv[1].value.is_concrete() && AllDigits(argv[1].value.concrete())) {
      st.exit = ExitStatus::Known(std::atoi(argv[1].value.concrete().c_str()));
    }
    st.terminated = true;
    out->push_back(std::move(st));
    return true;
  }
  if (name == "return") {
    // Approximated as termination of the enclosing unit.
    if (argv.size() > 1 && argv[1].value.is_concrete() && AllDigits(argv[1].value.concrete())) {
      st.exit = ExitStatus::Known(std::atoi(argv[1].value.concrete().c_str()));
    }
    st.terminated = true;
    out->push_back(std::move(st));
    return true;
  }
  if (name == "export" || name == "readonly" || name == "local") {
    for (size_t i = 1; i < argv.size(); ++i) {
      if (!argv[i].value.is_concrete()) {
        continue;
      }
      const std::string& a = argv[i].value.concrete();
      size_t eq = a.find('=');
      if (eq != std::string::npos && eq > 0) {
        st.Bind(a.substr(0, eq), SymValue::Concrete(a.substr(eq + 1)));
      }
    }
    st.exit = ExitStatus::Known(0);
    out->push_back(std::move(st));
    return true;
  }
  if (name == "unset") {
    for (size_t i = 1; i < argv.size(); ++i) {
      if (argv[i].value.is_concrete()) {
        st.Unset(argv[i].value.concrete());
      }
    }
    st.exit = ExitStatus::Known(0);
    out->push_back(std::move(st));
    return true;
  }
  if (name == "read") {
    for (size_t i = 1; i < argv.size(); ++i) {
      if (argv[i].value.is_concrete() && !argv[i].value.concrete().empty() &&
          argv[i].value.concrete()[0] != '-') {
        st.Bind(argv[i].value.concrete(), SymValue::UnknownLine());
      }
    }
    st.exit = ExitStatus::Unknown();  // EOF fails.
    out->push_back(std::move(st));
    return true;
  }
  if (name == "shift") {
    for (int i = 1; i <= 9; ++i) {
      std::string cur = std::to_string(i);
      std::string next = std::to_string(i + 1);
      const SymValue* v = st.Lookup(next);
      if (v != nullptr) {
        bool mu = st.MaybeUnset(next);
        SymValue copy = *v;
        if (mu) {
          st.BindMaybeUnset(cur, std::move(copy));
        } else {
          st.Bind(cur, std::move(copy));
        }
      } else {
        st.Unset(cur);
      }
    }
    st.exit = ExitStatus::Known(0);
    out->push_back(std::move(st));
    return true;
  }
  if (name == "set") {
    st.exit = ExitStatus::Known(0);
    out->push_back(std::move(st));
    return true;
  }
  if (name == "basename" || name == "dirname") {
    if (argv.size() > 1 && argv[1].value.is_concrete()) {
      std::string r = name == "basename" ? fs::BaseName(argv[1].value.concrete())
                                         : fs::DirName(argv[1].value.concrete());
      st.stdout_lines.push_back(SymValue::Concrete(r));
    } else {
      st.stdout_lines.push_back(SymValue::UnknownLine());
    }
    st.stdout_prov.reset();
    st.exit = ExitStatus::Known(0);
    out->push_back(std::move(st));
    return true;
  }
  if (name == "eval" || name == "source" || name == ".") {
    Emit(Severity::kInfo, kCodeUnknownCommand, cmd.range,
         "'" + name + "' runs dynamically-constructed code; its effects are not analyzed", st);
    st.exit = ExitStatus::Unknown();
    out->push_back(std::move(st));
    return true;
  }
  if (name == "test" || name == "[") {
    std::vector<Expanded> args = args_from(1);
    if (name == "[") {
      if (args.empty() || !args.back().value.is_concrete() ||
          args.back().value.concrete() != "]") {
        Emit(Severity::kWarning, kCodeParamError, cmd.range, "'[' is missing the closing ']'",
             st);
      } else {
        args.pop_back();
      }
    }
    TestOutcome outcome = EvalTest(st, args);
    auto apply = [&](State s, const BranchRefinement& ref, bool truth) {
      for (const auto& [var, value] : ref.rebind) {
        s.Bind(var, value);
      }
      for (const auto& [key, state] : ref.fs_assume) {
        s.sfs.Assume(key, state);
        ++stats_->fs_ops;
      }
      s.exit = ExitStatus::Known(truth ? 0 : 1);
      return s;
    };
    switch (outcome.verdict) {
      case TestOutcome::Verdict::kTrue:
        out->push_back(apply(std::move(st), outcome.if_true, true));
        break;
      case TestOutcome::Verdict::kFalse:
        out->push_back(apply(std::move(st), outcome.if_false, false));
        break;
      case TestOutcome::Verdict::kUnknown: {
        ++stats_->forks;
        State t = apply(st, outcome.if_true, true);
        t.id = NewStateId();
        State f = apply(std::move(st), outcome.if_false, false);
        if (t.WantsNote()) {
          t.Assume("assumed " + outcome.description + " is true");
          f.Assume("assumed " + outcome.description + " is false");
        }
        out->push_back(std::move(t));
        out->push_back(std::move(f));
        break;
      }
    }
    return true;
  }
  return false;
}

std::vector<State> Evaluator::BuiltinCd(State st, const std::vector<Expanded>& argv) {
  // Resolve the target value ("cd" alone goes to $HOME).
  Expanded target;
  if (argv.size() < 2) {
    const SymValue* home = st.Lookup("HOME");
    target.value = home != nullptr ? *home : SymValue::Concrete("/home/user");
  } else {
    target = argv[1];
  }

  if (target.value.MustBeEmpty()) {
    // cd "" fails (dash semantics; bash treats it as a no-op — we model the
    // conservative failure, which is also what the Steam trace exhibits).
    st.exit = ExitStatus::Known(1);
    return {std::move(st)};
  }

  auto success_state = [&](State s) {
    // `cd /` needs no cwd to resolve against, and the danger check must
    // know a root cwd concretely (`cd / && rm -rf *`).
    const bool to_root =
        target.value.is_concrete() && fs::NormalizePath(target.value.concrete()) == "/";
    if (target.value.is_concrete() && (to_root || s.cwd.is_concrete())) {
      std::string newcwd =
          to_root ? "/" : fs::Absolutize(target.value.concrete(), s.cwd.concrete());
      s.cwd = SymValue::Concrete(newcwd);
      s.sfs.Assume(PathKey::Concrete(newcwd), PathState::kIsDir);
      ++stats_->fs_ops;
    } else {
      // Unknown target: the new cwd is some canonical absolute directory
      // (possibly "/" — the paper's "//upd.sh" corner case stays in play),
      // with no "." or ".." component since cd resolves them. Fig. 2's
      // realpath refinement and the danger language's ".." widening rely on it.
      static const regex::Regex kDir = *regex::Regex::FromPattern(
          "/((\\.?\\.?[^./\\n]|\\.\\.\\.)[^/\\n]*/)*((\\.?\\.?[^./\\n]|\\.\\.\\.)[^/\\n]*)?");
      s.cwd = SymValue::Language(kDir);
    }
    s.Bind("PWD", s.cwd);
    s.exit = ExitStatus::Known(0);
    return s;
  };
  auto failure_state = [&](State s) {
    s.exit = ExitStatus::Known(1);
    return s;
  };

  // Consult symbolic FS knowledge for concrete targets.
  std::optional<PathKey> key = PathKeyOf(st, target);
  if (key.has_value()) {
    Knowledge k = st.sfs.CheckRequirement(*key, PathState::kIsDir);
    if (k == Knowledge::kKnown) {
      return {success_state(std::move(st))};
    }
    if (k == Knowledge::kContradiction) {
      Emit(Severity::kWarning, kCodeAlwaysFails, SourceRange{},
           "cd " + target.value.Describe() + " always fails: the target cannot be a directory",
           st);
      return {failure_state(std::move(st))};
    }
  }
  if (target.value.CanBeEmpty()) {
    // The empty-target case folds into the failure branch.
  }
  ++stats_->forks;
  State ok = st;
  ok.id = NewStateId();
  if (key.has_value()) {
    ok.sfs.Assume(*key, PathState::kIsDir);
    ++stats_->fs_ops;
  }
  State fail = std::move(st);
  if (ok.WantsNote()) {
    const std::string target_text = target.value.Describe();
    ok.Assume("assumed `cd " + target_text + "` succeeded");
    fail.Assume("assumed `cd " + target_text + "` failed");
  }
  return {success_state(std::move(ok)), failure_state(std::move(fail))};
}

std::vector<State> Evaluator::BuiltinRealpath(State st, const std::vector<Expanded>& argv) {
  if (argv.size() < 2) {
    st.exit = ExitStatus::Known(1);
    return {std::move(st)};
  }
  const Expanded& arg = argv[1];

  SymValue output;
  std::optional<Provenance> prov;
  if (arg.value.is_concrete()) {
    std::string abs = st.cwd.is_concrete()
                          ? fs::Absolutize(arg.value.concrete(), st.cwd.concrete())
                          : fs::NormalizePath(arg.value.concrete());
    output = SymValue::Concrete(abs);
  } else {
    // Canonicalization maps the input language to canonical absolute paths;
    // keep the variable link so a comparison against "/" can refine it.
    output = SymValue::AbsolutePath();
    if (arg.prov.has_value()) {
      prov = *arg.prov;
      prov->canonicalized = true;
    }
  }

  auto success_state = [&](State s) {
    s.stdout_lines.push_back(output);
    s.stdout_prov = prov;
    s.exit = ExitStatus::Known(0);
    return s;
  };

  std::optional<PathKey> key = PathKeyOf(st, arg);
  if (key.has_value()) {
    Knowledge k = st.sfs.CheckRequirement(*key, PathState::kExists);
    if (k == Knowledge::kKnown) {
      return {success_state(std::move(st))};
    }
    if (k == Knowledge::kContradiction) {
      Emit(Severity::kWarning, kCodeAlwaysFails, SourceRange{},
           "realpath " + arg.value.Describe() + " always fails: the path cannot exist", st);
      st.exit = ExitStatus::Known(1);
      return {std::move(st)};
    }
  }
  ++stats_->forks;
  State ok = st;
  ok.id = NewStateId();
  if (key.has_value()) {
    ok.sfs.Assume(*key, PathState::kExists);
    ++stats_->fs_ops;
  }
  State fail = std::move(st);
  if (ok.WantsNote()) {
    const std::string arg_text = arg.value.Describe();
    ok.Assume("assumed `realpath " + arg_text + "` succeeded");
    fail.Assume("assumed `realpath " + arg_text + "` failed");
  }
  fail.exit = ExitStatus::Known(1);
  return {success_state(std::move(ok)), std::move(fail)};
}

TestOutcome Evaluator::EvalTest(State& st, const std::vector<Expanded>& args) {
  TestOutcome out;
  out.description = "[ ";
  for (const Expanded& a : args) {
    out.description += a.value.Describe() + " ";
  }
  out.description += "]";

  auto concrete = [](const Expanded& e) -> std::optional<std::string> {
    if (e.value.is_concrete()) {
      return e.value.concrete();
    }
    return std::nullopt;
  };

  // Negation: [ ! expr ].
  if (!args.empty() && concrete(args[0]) == "!") {
    TestOutcome inner = EvalTest(st, {args.begin() + 1, args.end()});
    TestOutcome flipped;
    flipped.description = inner.description;
    switch (inner.verdict) {
      case TestOutcome::Verdict::kTrue:
        flipped.verdict = TestOutcome::Verdict::kFalse;
        break;
      case TestOutcome::Verdict::kFalse:
        flipped.verdict = TestOutcome::Verdict::kTrue;
        break;
      case TestOutcome::Verdict::kUnknown:
        flipped.verdict = TestOutcome::Verdict::kUnknown;
        break;
    }
    flipped.if_true = inner.if_false;
    flipped.if_false = inner.if_true;
    return flipped;
  }

  auto nonempty_test = [&](const Expanded& e, bool want_nonempty) {
    bool can_empty = e.value.CanBeEmpty();
    bool must_empty = e.value.MustBeEmpty();
    TestOutcome o;
    o.description = out.description;
    if (must_empty) {
      o.verdict = want_nonempty ? TestOutcome::Verdict::kFalse : TestOutcome::Verdict::kTrue;
      return o;
    }
    if (!can_empty) {
      o.verdict = want_nonempty ? TestOutcome::Verdict::kTrue : TestOutcome::Verdict::kFalse;
      return o;
    }
    o.verdict = TestOutcome::Verdict::kUnknown;
    if (e.prov.has_value() && e.prov->suffix.empty() && !e.prov->canonicalized) {
      const SymValue* var = st.Lookup(e.prov->var);
      if (var != nullptr) {
        BranchRefinement& nonempty_branch = want_nonempty ? o.if_true : o.if_false;
        BranchRefinement& empty_branch = want_nonempty ? o.if_false : o.if_true;
        nonempty_branch.rebind.emplace_back(e.prov->var, var->RestrictNonEmpty());
        empty_branch.rebind.emplace_back(e.prov->var, var->RestrictEmpty());
      }
    }
    return o;
  };

  // Unary operators.
  if (args.size() == 2 && concrete(args[0]).has_value()) {
    const std::string op = *concrete(args[0]);
    const Expanded& operand = args[1];
    if (op == "-z") {
      return nonempty_test(operand, /*want_nonempty=*/false);
    }
    if (op == "-n") {
      return nonempty_test(operand, /*want_nonempty=*/true);
    }
    if (op == "-f" || op == "-d" || op == "-e" || op == "-r" || op == "-w" || op == "-x" ||
        op == "-s") {
      specs::PathState required = op == "-f"   ? PathState::kIsFile
                                  : op == "-d" ? PathState::kIsDir
                                               : PathState::kExists;
      std::optional<PathKey> key = PathKeyOf(st, operand);
      TestOutcome o;
      o.description = out.description;
      if (!key.has_value()) {
        o.verdict = TestOutcome::Verdict::kUnknown;
        return o;
      }
      Knowledge k = st.sfs.CheckRequirement(*key, required);
      if (k == Knowledge::kKnown) {
        o.verdict = TestOutcome::Verdict::kTrue;
        return o;
      }
      if (k == Knowledge::kContradiction) {
        o.verdict = TestOutcome::Verdict::kFalse;
        return o;
      }
      o.verdict = TestOutcome::Verdict::kUnknown;
      o.if_true.fs_assume.emplace_back(*key, required);
      if (op == "-e") {
        o.if_false.fs_assume.emplace_back(*key, PathState::kAbsent);
      }
      return o;
    }
    // Unknown unary operator: environment-dependent.
    return out;
  }

  // Binary operators.
  if (args.size() == 3 && concrete(args[1]).has_value()) {
    const std::string op = *concrete(args[1]);
    const Expanded& lhs = args[0];
    const Expanded& rhs = args[2];
    if (op == "=" || op == "==" || op == "!=") {
      bool want_equal = op != "!=";
      TestOutcome o;
      o.description = out.description;
      // Orient so `sym` is the symbolic side when exactly one side is.
      const Expanded* sym = nullptr;
      std::optional<std::string> lit;
      if (concrete(lhs).has_value() && concrete(rhs).has_value()) {
        bool equal = *concrete(lhs) == *concrete(rhs);
        o.verdict = equal == want_equal ? TestOutcome::Verdict::kTrue
                                        : TestOutcome::Verdict::kFalse;
        return o;
      }
      if (concrete(rhs).has_value()) {
        sym = &lhs;
        lit = concrete(rhs);
      } else if (concrete(lhs).has_value()) {
        sym = &rhs;
        lit = concrete(lhs);
      }
      if (sym == nullptr) {
        // Both symbolic: decidable only by language disjointness.
        regex::Regex both = lhs.value.lang().Intersect(rhs.value.lang());
        if (both.IsEmptyLanguage()) {
          o.verdict = want_equal ? TestOutcome::Verdict::kFalse : TestOutcome::Verdict::kTrue;
        } else {
          o.verdict = TestOutcome::Verdict::kUnknown;
        }
        return o;
      }
      if (!sym->value.CanEqual(*lit)) {
        o.verdict = want_equal ? TestOutcome::Verdict::kFalse : TestOutcome::Verdict::kTrue;
        return o;
      }
      if (sym->value.MustEqual(*lit)) {
        o.verdict = want_equal ? TestOutcome::Verdict::kTrue : TestOutcome::Verdict::kFalse;
        return o;
      }
      o.verdict = TestOutcome::Verdict::kUnknown;
      // Refine the underlying variable on each branch, inverting the
      // provenance chain (suffix append, realpath canonicalization).
      if (sym->prov.has_value()) {
        const Provenance& p = *sym->prov;
        const SymValue* var = st.Lookup(p.var);
        if (var != nullptr) {
          SymValue eq_refined = *var;
          SymValue ne_refined = *var;
          bool refinable = true;
          if (p.canonicalized) {
            // canonical(var + suffix) == lit. For the pattern the paper's
            // Fig. 2/3 use (suffix "/", lit "/"): var ∈ {"", "/"}.
            if (p.suffix == "/" && *lit == "/") {
              regex::Regex root_like =
                  regex::Regex::Literal("").Union(regex::Regex::Literal("/"));
              eq_refined = var->RestrictTo(root_like);
              ne_refined = var->RestrictTo(root_like.Complement());
            } else {
              refinable = false;
            }
          } else if (!p.suffix.empty()) {
            // var + suffix == lit  =>  var == lit-without-suffix.
            if (lit->size() >= p.suffix.size() && EndsWith(*lit, p.suffix)) {
              std::string stem = lit->substr(0, lit->size() - p.suffix.size());
              eq_refined = var->RestrictTo(regex::Regex::Literal(stem));
              ne_refined = var->RestrictNotEqual(stem);
            } else {
              // Equality is impossible; handled above via CanEqual on the
              // concatenated language in most cases. Be safe:
              refinable = false;
            }
          } else {
            eq_refined = var->RestrictTo(regex::Regex::Literal(*lit));
            ne_refined = var->RestrictNotEqual(*lit);
          }
          if (refinable) {
            BranchRefinement& eq_branch = want_equal ? o.if_true : o.if_false;
            BranchRefinement& ne_branch = want_equal ? o.if_false : o.if_true;
            eq_branch.rebind.emplace_back(p.var, eq_refined);
            ne_branch.rebind.emplace_back(p.var, ne_refined);
          }
        }
      }
      return o;
    }
    if (op == "-eq" || op == "-ne" || op == "-lt" || op == "-le" || op == "-gt" ||
        op == "-ge") {
      std::optional<std::string> l = concrete(lhs);
      std::optional<std::string> r = concrete(rhs);
      TestOutcome o;
      o.description = out.description;
      if (l.has_value() && r.has_value() && AllDigits(*l) && AllDigits(*r)) {
        long lv = std::atol(l->c_str());
        long rv = std::atol(r->c_str());
        bool truth = op == "-eq"   ? lv == rv
                     : op == "-ne" ? lv != rv
                     : op == "-lt" ? lv < rv
                     : op == "-le" ? lv <= rv
                     : op == "-gt" ? lv > rv
                                   : lv >= rv;
        o.verdict = truth ? TestOutcome::Verdict::kTrue : TestOutcome::Verdict::kFalse;
      }
      return o;
    }
    return out;
  }

  // [ w ]: true iff non-empty.
  if (args.size() == 1) {
    return nonempty_test(args[0], /*want_nonempty=*/true);
  }
  if (args.empty()) {
    TestOutcome o;
    o.description = "[ ]";
    o.verdict = TestOutcome::Verdict::kFalse;
    return o;
  }
  return out;  // Unrecognized form: unknown.
}

}  // namespace sash::symex
