// Internal workhorse of the symbolic engine. Split across expand.cc
// (word/parameter expansion), builtins.cc (builtin command models), and
// engine.cc (control flow and external-command specs). Not part of the
// public API — include symex/engine.h instead.
#ifndef SASH_SYMEX_EVALUATOR_H_
#define SASH_SYMEX_EVALUATOR_H_

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "symex/engine.h"
#include "symfs/symbolic_fs.h"

namespace sash::symex {

// Result of expanding one word in one state.
struct Expanded {
  SymValue value;
  bool has_unquoted_glob = false;
  // The word was a single unquoted expansion: an empty value drops the field.
  bool droppable_if_empty = false;
  std::optional<Provenance> prov;
  std::vector<std::string> vars;  // Variables contributing to the value.
};

// Ternary verdict with per-branch refinements, produced by `test` and reused
// by other forking decisions.
struct BranchRefinement {
  std::vector<std::pair<std::string, SymValue>> rebind;
  std::vector<std::pair<symfs::PathKey, specs::PathState>> fs_assume;
};

struct TestOutcome {
  enum class Verdict { kTrue, kFalse, kUnknown };
  Verdict verdict = Verdict::kUnknown;
  BranchRefinement if_true;
  BranchRefinement if_false;
  std::string description;  // For assumption notes, e.g. "[ $x = / ]".
};

class Evaluator {
 public:
  Evaluator(const EngineOptions& options, DiagnosticSink* sink, EngineStats* stats);

  State MakeInitialState() const;

  std::vector<State> ExecProgram(State st, const syntax::Program& program, int depth);
  std::vector<State> Exec(State st, const syntax::Command& cmd, int depth);

  // --- expansion (expand.cc) ---
  Expanded ExpandWord(State& st, const syntax::Word& word, int depth);

 private:
  // engine.cc
  std::vector<State> ExecSimple(State st, const syntax::Command& cmd, int depth);
  std::vector<State> ExecList(State st, const syntax::Command& cmd, int depth);
  std::vector<State> ExecPipeline(State st, const syntax::Command& cmd, int depth);
  std::vector<State> ExecIf(State st, const syntax::Command& cmd, int depth);
  std::vector<State> ExecLoop(State st, const syntax::Command& cmd, int depth);
  std::vector<State> ExecFor(State st, const syntax::Command& cmd, int depth);
  std::vector<State> ExecCase(State st, const syntax::Command& cmd, int depth);
  std::vector<State> ExecSubshell(State st, const syntax::Command& cmd, int depth);
  std::vector<State> ExecExternal(State st, const syntax::Command& cmd,
                                  const std::vector<Expanded>& argv, int depth);
  std::vector<State> CallFunction(State st, const syntax::Command* body,
                                  const std::vector<Expanded>& argv, int depth);

  void ApplyRedirects(State& st, const syntax::Command& cmd, int depth);
  void CheckDangerousDelete(const State& st, const syntax::Command& cmd,
                            const specs::Invocation& inv, const std::vector<Expanded>& operands);
  // Tests a path that `name` writes (or reads) against the effects policy:
  // an error when it must lie under a protected prefix, a warning when it may.
  void CheckPolicy(const State& st, SourceRange range, const std::string& name,
                   const Expanded& path, bool write);

  // Partitions states on exit status, forking unknowns. `context` feeds the
  // assumption notes.
  void ForkOnExit(std::vector<State> states, std::string_view context,
                  std::vector<State>* success, std::vector<State>* failure);

  // Applies state-count controls; returns the capped set.
  std::vector<State> Control(std::vector<State> states);

  // builtins.cc
  // Returns true when `name` was handled as a builtin (results appended).
  bool TryBuiltin(const std::string& name, State& st, const syntax::Command& cmd,
                  const std::vector<Expanded>& argv, int depth, std::vector<State>* out);
  TestOutcome EvalTest(State& st, const std::vector<Expanded>& args);
  std::vector<State> BuiltinCd(State st, const std::vector<Expanded>& argv);
  std::vector<State> BuiltinRealpath(State st, const std::vector<Expanded>& argv);

  // expand.cc
  SymValue ExpandParam(State& st, const syntax::WordPart& part, int depth);
  SymValue EvalCommandSub(State& st, const syntax::WordPart& part, int depth,
                          std::optional<Provenance>* prov_out);
  SymValue EvalArith(State& st, const std::string& expr);

  // Shared helpers.
  std::optional<symfs::PathKey> PathKeyOf(const State& st, const Expanded& e) const;
  // The path an operand names, as the danger and policy languages see it: a
  // concrete operand is resolved against a concrete cwd and normalized
  // lexically (POSIX: "/.." is "/"); anything else is returned as is.
  static SymValue ResolvedPath(const State& st, const Expanded& e);
  void Emit(Severity severity, const char* code, SourceRange range, std::string message,
            const State& st, std::vector<std::string> extra_notes = {});
  const specs::SpecLibrary& lib() const {
    return options_.library != nullptr ? *options_.library
                                       : specs::SpecLibrary::BuiltinGroundTruth();
  }
  int NewStateId() { return ++next_state_id_; }

  // Whether a diagnostic with this identity was already emitted — lets hot
  // paths skip building expensive messages (value rendering, witnesses) for
  // duplicates. `code` must be the same literal later passed to Emit.
  bool AlreadyEmitted(const char* code, SourceRange range, Severity severity) const;

  static bool ParanoidMergeFromEnv() {
    const char* v = std::getenv("SASH_PARANOID_MERGE");
    return v != nullptr && std::string_view(v) != "0";
  }

  const EngineOptions& options_;
  DiagnosticSink* sink_;
  EngineStats* stats_;
  const bool paranoid_merge_ = false;
  // The policy's prefixes as path languages, one per prefix.
  std::vector<regex::Regex> no_write_;
  std::vector<regex::Regex> no_read_;
  int next_state_id_ = 0;
  std::set<std::string> emitted_;  // Dedup key: code@offset@severity.
  std::vector<uint64_t> merge_digests_;  // Control's digest list, reused per call.

  friend class Engine;
};

// Static glob pattern of a word (glob metacharacters preserved, expansions
// rejected). Used for case patterns. Returns false when the word contains
// dynamic parts.
bool StaticGlobPattern(const syntax::Word& word, std::string* out);

}  // namespace sash::symex

#endif  // SASH_SYMEX_EVALUATOR_H_
