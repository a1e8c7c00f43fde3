// Execution state for the symbolic engine: variable store, working directory,
// exit status, symbolic file system, accumulated stdout, and the path
// condition (as human-readable assumptions used in witness notes).
//
// The variable store is keyed by interned symbols and every mutation keeps a
// running 64-bit digest in sync, so `State::Digest()` — the key the merge
// loop compares — costs a handful of integer mixes instead of rendering the
// whole state to a string. Digests hash content (names, values, facts),
// never intern ids, so they are stable across runs and thread schedules.
//
// The engine forks states constantly, so a copy shares the variable store,
// the function table, the notes and the file-system facts (util::Cow) and
// costs the same at any state size; the first write to a shared part
// clones that part only.
#ifndef SASH_SYMEX_STATE_H_
#define SASH_SYMEX_STATE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "symex/value.h"
#include "symfs/symbolic_fs.h"
#include "syntax/ast.h"
#include "util/cow.h"
#include "util/hash.h"
#include "util/intern.h"

namespace sash::symex {

// Abstract exit status: a known code or "some code, 0 or nonzero unknown".
struct ExitStatus {
  bool known = true;
  int code = 0;

  static ExitStatus Known(int c) { return ExitStatus{true, c}; }
  static ExitStatus Unknown() { return ExitStatus{false, 0}; }

  bool MustSucceed() const { return known && code == 0; }
  bool MustFail() const { return known && code != 0; }
  bool CanSucceed() const { return !known || code == 0; }
  bool CanFail() const { return !known || code != 0; }
};

// How a value was computed from a variable — enough structure to push test
// refinements back onto the variable (the paper's context-sensitivity: "it
// concludes safety ... by tracking constraints on variable contents,
// including those from conditionals").
struct Provenance {
  std::string var;           // The source variable.
  std::string suffix;        // Literal text appended after the expansion.
  bool canonicalized = false;  // Passed through realpath.
};

struct State {
  using VarMap = std::map<util::Symbol, SymValue>;
  using FunctionMap = std::map<util::Symbol, const syntax::Command*>;

  // Path-condition notes kept per state. Evaluator::Emit renders the first
  // kMaxNotes - 1 and marks any beyond with "(further assumptions elided)",
  // for which one more note is enough, so later ones are never stored.
  static constexpr size_t kMaxNotes = 5;

  int id = 0;

  SymValue cwd = SymValue::Concrete("/");
  ExitStatus exit;
  symfs::SymbolicFs sfs;

  // Captured standard output (one entry per written line), consumed by
  // command substitution.
  std::vector<SymValue> stdout_lines;
  // Provenance of the last stdout line, when a value-model command (echo of a
  // variable, realpath) produced it — lets `test` refine through
  // substitutions like $(realpath "$STEAMROOT/").
  std::optional<Provenance> stdout_prov;

  bool terminated = false;  // `exit` was executed.

  // True when this path assumed some command failed (a forked failure branch
  // or a spec case with nonzero exit). Used by the idempotence criterion to
  // condition on "the first run succeeded".
  bool assumed_failure = false;

  // Visible function definitions (AST owned by the analyzed Program).
  // Shared between forks; insert through `functions.write()`.
  util::Cow<FunctionMap> functions;

  // ----- variable helpers -----
  // The store is private so every mutation maintains `vars_digest_`; all
  // writes go through Bind/BindMaybeUnset/Unset/RestoreScopeFrom. String
  // overloads intern (the population is bounded by script text). A pointer
  // from Lookup() is valid only until the next write to this state's
  // variables (see util::Cow).

  bool IsSet(util::Symbol name) const { return scope_->vars.count(name) > 0; }
  bool IsSet(const std::string& name) const {
    auto sym = util::Symbol::Find(name);
    return sym.has_value() && IsSet(*sym);
  }

  bool MaybeUnset(util::Symbol name) const { return scope_->maybe_unset.count(name) > 0; }
  bool MaybeUnset(const std::string& name) const {
    auto sym = util::Symbol::Find(name);
    return sym.has_value() && MaybeUnset(*sym);
  }

  const SymValue* Lookup(util::Symbol name) const {
    auto it = scope_->vars.find(name);
    return it == scope_->vars.end() ? nullptr : &it->second;
  }
  const SymValue* Lookup(const std::string& name) const {
    // Non-inserting: a name that was never interned was never bound.
    auto sym = util::Symbol::Find(name);
    return sym.has_value() ? Lookup(*sym) : nullptr;
  }

  void Bind(util::Symbol name, SymValue value) { BindAs(name, std::move(value), false); }
  void Bind(const std::string& name, SymValue value) {
    Bind(util::Symbol::Intern(name), std::move(value));
  }

  void BindMaybeUnset(util::Symbol name, SymValue value) {
    BindAs(name, std::move(value), true);
  }
  void BindMaybeUnset(const std::string& name, SymValue value) {
    BindMaybeUnset(util::Symbol::Intern(name), std::move(value));
  }

  void Unset(util::Symbol name) {
    if (!IsSet(name)) {
      return;  // Nothing to erase: leave a shared store shared.
    }
    RemoveBindingDigest(name);
    Scope& scope = scope_.write();
    scope.vars.erase(name);
    scope.maybe_unset.erase(name);
  }
  void Unset(const std::string& name) {
    auto sym = util::Symbol::Find(name);
    if (sym.has_value()) {
      Unset(*sym);
    }
  }

  const VarMap& vars() const { return scope_->vars; }
  const std::set<util::Symbol>& maybe_unset() const { return scope_->maybe_unset; }

  // Subshell semantics: adopt the parent's variable/function scope (the
  // subshell result keeps its own exit/stdout/sfs).
  void RestoreScopeFrom(const State& parent) {
    scope_ = parent.scope_;
    vars_digest_ = parent.vars_digest_;
    functions = parent.functions;
  }

  // Human-readable path condition, e.g. "assumed `cd` failed"; holds at
  // most kMaxNotes notes, oldest first.
  const std::vector<std::string>& assumptions() const { return *assumptions_; }
  // False once kMaxNotes are held: callers skip building note text then.
  bool WantsNote() const { return assumptions_->size() < kMaxNotes; }
  void Assume(std::string note) {
    if (WantsNote()) {
      assumptions_.write().push_back(std::move(note));
    }
  }

  // Joined stdout as a single value ("" when no output) with trailing
  // newline stripped — command-substitution semantics.
  SymValue JoinedStdout() const;

  // 64-bit digest of everything the legacy merge signature compared:
  // terminated, exit, cwd, variable bindings (with their maybe-unset marks),
  // filesystem facts, and the stdout line sequence. Excludes — exactly as
  // the string signature did — id, assumptions, assumed_failure, functions,
  // and stdout provenance. The variable component is maintained
  // incrementally; the rest are cached per part, so a call is O(stdout).
  uint64_t Digest() const;

 private:
  // Variable store. Missing name = unset. `maybe_unset` marks names whose
  // set-ness is environment-dependent (positional parameters, inherited
  // env); it is always a subset of the bound names.
  struct Scope {
    VarMap vars;
    std::set<util::Symbol> maybe_unset;
  };

  static uint64_t BindingHash(util::Symbol name, const SymValue& value,
                              bool maybe_unset) {
    uint64_t h = util::FnvMix64(0x7661723a00000000ull, name.hash());  // "var:"
    h = util::FnvMix64(h, value.Digest());
    return util::FnvMix64(h, maybe_unset ? 2 : 1);
  }

  void RemoveBindingDigest(util::Symbol name) {
    if (const SymValue* old = Lookup(name); old != nullptr) {
      vars_digest_.Remove(BindingHash(name, *old, MaybeUnset(name)));
    }
  }

  void BindAs(util::Symbol name, SymValue value, bool maybe_unset) {
    RemoveBindingDigest(name);
    Scope& scope = scope_.write();
    if (maybe_unset) {
      scope.maybe_unset.insert(name);
    } else {
      scope.maybe_unset.erase(name);
    }
    SymValue& slot = scope.vars[name];
    slot = std::move(value);
    vars_digest_.Add(BindingHash(name, slot, maybe_unset));
  }

  // Copy-on-write parts: copying a State shares them, the first write to a
  // shared part clones it.
  util::Cow<Scope> scope_;
  util::CommutativeDigest vars_digest_;
  util::Cow<std::vector<std::string>> assumptions_;
};

}  // namespace sash::symex

#endif  // SASH_SYMEX_STATE_H_
