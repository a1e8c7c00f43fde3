// The symbolic execution engine (§3 ingredient 2): simulates the shell
// interpreter over symbolic states — expanding parameters, tracking working
// directories, following success and failure paths, collecting and
// propagating constraints on symbolic variables, and pruning via concrete
// state whenever possible.
//
// Values are regular languages (SymValue); control-flow uncertainty forks
// states. Command effects come from the Hoare specification library; a small
// set of builtins (cd, test, echo, ...) is modeled natively, like primitive
// functions in other languages.
#ifndef SASH_SYMEX_ENGINE_H_
#define SASH_SYMEX_ENGINE_H_

#include <string>
#include <vector>

#include "obs/metrics.h"
#include "regex/regex.h"
#include "specs/library.h"
#include "symex/state.h"
#include "syntax/ast.h"
#include "util/cancel.h"
#include "util/diagnostics.h"

namespace sash::symex {

// Diagnostic codes emitted by the engine.
inline constexpr char kCodeDeleteRoot[] = "SASH-DEL-ROOT";
inline constexpr char kCodeAlwaysFails[] = "SASH-ALWAYS-FAILS";
inline constexpr char kCodeUnsetVar[] = "SASH-UNSET-VAR";
inline constexpr char kCodeUnknownCommand[] = "SASH-UNKNOWN-CMD";
inline constexpr char kCodeEmptyExpansionArg[] = "SASH-EMPTY-OPERAND";
inline constexpr char kCodeParamError[] = "SASH-PARAM-ERROR";
inline constexpr char kCodePolicy[] = "SASH-POLICY";

// The one definition of root deletion, shared by the engine and verify's
// runtime guard: the root ("/", "//") and globs of its entries, also spelled
// through "." and ".." ("/*", "/./*", "/tmp/../*"). Which paths reach the
// root through ".." needs balanced counting, which no regular language can
// do, so every absolute "<anything>/../*" is in: a documented
// over-approximation. Concrete paths are normalized lexically before the
// test (POSIX: "/.." is "/"), so only symbolic values see it.
const regex::Regex& DangerLanguage();

// A user policy over file-system effects (the paper's
// `verify --no-RW ~/mine`). The engine tests every path a modeled effect
// touches against it and reports kCodePolicy: an error when every value of
// the path lies under a protected prefix, a warning when some may.
struct EffectPolicy {
  // Path prefixes that must be neither written, deleted, nor created under.
  std::vector<std::string> no_write;
  // Path prefixes that must not even be read.
  std::vector<std::string> no_read;

  bool empty() const { return no_write.empty() && no_read.empty(); }
};

struct EngineOptions {
  // State-explosion controls (§4: "avoiding exponential explosion").
  int max_states = 128;     // Hard cap on live states; extras are merged.
  int loop_unroll = 2;      // Loop iterations explored before widening.
  int max_call_depth = 16;  // Function/substitution nesting budget.
  int max_for_iterations = 8;

  // Language of possible $0 values; the paper's §3 path shape by default.
  std::string script_path_pattern = "/?([^/\\n]*/)*[^/\\n]+";

  // User annotations: initial variable content constraints (name, pattern).
  std::vector<std::pair<std::string, std::string>> var_patterns;

  // Number of positional parameters assumed possibly-present.
  int positional_params = 3;

  const specs::SpecLibrary* library = nullptr;  // Default: BuiltinGroundTruth.

  // Effects policy; only `verify` sets one. Never fingerprinted into cache
  // keys: analyze runs with the empty policy, and verify caches nothing.
  EffectPolicy policy;

  // Optional cooperative cancellation: the engine polls this once per
  // executed command and winds down (terminating every live state with an
  // unknown exit) when the token expires. Never fingerprinted into cache
  // keys — only deterministic budgets may shape cached results.
  util::CancelToken* cancel = nullptr;

  bool report_unset_vars = true;
  // Merge states that become indistinguishable (prunes via concrete state),
  // comparing their incremental 64-bit digests. Setting the
  // SASH_PARANOID_MERGE environment variable (to anything but "0")
  // cross-checks every merge against the rendered state signature and
  // counts collisions instead of merging on them.
  bool merge_identical_states = true;
};

struct EngineStats {
  int commands_executed = 0;
  int forks = 0;
  int states_peak = 1;
  int states_merged = 0;
  int states_dropped = 0;  // Cap overflow.
  int depth_cap_hits = 0;  // Exec calls cut off at max_call_depth.
  int cancelled = 0;       // 1 when a cancel token cut the run short.
  int final_states = 0;
  int fs_ops = 0;  // Symbolic file-system mutations and assumptions applied.
  // Digest-equal state pairs whose rendered signatures differed; only
  // counted under paranoid merging (such pairs are kept separate, not merged).
  int digest_collisions = 0;

  // Mirrors every field into the registry under "symex.*" (counters, except
  // the peak which is a high-watermark gauge). The registry is the
  // cross-subsystem view; EngineStats stays the cheap per-run struct.
  void PublishTo(obs::Registry* registry) const;
};

class Engine {
 public:
  Engine(EngineOptions options, DiagnosticSink* sink);

  // Runs the whole program from the initial state; returns all surviving
  // final states. Diagnostics accumulate in the sink.
  std::vector<State> Run(const syntax::Program& program);

  // Runs from a caller-provided initial state (for tests and composition).
  std::vector<State> RunFrom(State initial, const syntax::Program& program);

  const EngineStats& stats() const { return stats_; }

  // The initial state the engine starts from (exposed for tests).
  State MakeInitialState() const;

 private:
  friend class Evaluator;
  EngineOptions options_;
  DiagnosticSink* sink_;
  EngineStats stats_;
};

}  // namespace sash::symex

#endif  // SASH_SYMEX_ENGINE_H_
