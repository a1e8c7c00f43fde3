// The aggregated analyzer — sash's public API. "Divide and conquer" (§1):
// static guarantees are disaggregated into tractable subsystems — syntactic
// lint, Hoare-style file-system reasoning via symbolic execution, and regular
// stream types — then reaggregated into one report.
//
//   sash::core::Analyzer analyzer;
//   sash::core::AnalysisReport report = analyzer.AnalyzeSource(script_text);
//   for (const sash::Diagnostic& f : report.findings()) { ... }
#ifndef SASH_CORE_ANALYZER_H_
#define SASH_CORE_ANALYZER_H_

#include <cstddef>
#include <string>
#include <vector>

#include "annot/annotations.h"
#include "lint/lint.h"
#include "obs/obs.h"
#include "stream/pipeline.h"
#include "symex/engine.h"
#include "syntax/parser.h"

namespace sash::core {

// Idempotence criterion (§4, after CoLiS): a script whose second run from
// the first run's final file-system state provably fails is not idempotent —
// an important property for installation scripts.
inline constexpr char kCodeNotIdempotent[] = "SASH-NOT-IDEMPOTENT";

// §5 "Performance": suggestion-based optimization coaching — independent
// adjacent commands that could be reordered or parallelized.
inline constexpr char kCodeParallelizable[] = "SASH-OPT-PARALLEL";

// Budget/cap truncation surfaced as an explicit note (never silent): the
// analysis ran but did not explore everything. Severity kInfo — an
// incomplete analysis is not itself a defect in the script.
inline constexpr char kCodeIncomplete[] = "SASH-INCOMPLETE";

// Schema tag of AnalysisReport::ToJson documents.
inline constexpr char kAnalysisSchema[] = "sash-analysis-v1";

struct AnalyzerOptions {
  bool enable_lint = false;  // The baseline is off by default; sash's own
                             // analyses subsume its useful findings.
  bool enable_symex = true;
  bool enable_stream_types = true;
  bool apply_annotations = true;
  // Opt-in: re-run the symbolic engine from each final file-system state and
  // report commands that fail only on the second run.
  bool enable_idempotence_check = false;
  int idempotence_state_cap = 8;  // Final states re-executed at most.
  // Opt-in: emit kCodeParallelizable suggestions from the read-write
  // dependency analysis (§5's optimization coach).
  bool enable_optimization_coach = false;

  // Resilience: an optional cooperative cancellation/budget token, polled by
  // every phase boundary and threaded into the symex engine, the stream
  // checker, and the idempotence reruns. When it expires mid-analysis the
  // report is still well-formed — phases already run keep their findings,
  // the rest are skipped — and is tagged degraded with the token's reason.
  // The pointer itself is never part of the cache fingerprint.
  util::CancelToken* cancel = nullptr;
  // Inputs larger than this many bytes are not analyzed at all: the report
  // comes back degraded ("input-too-large") with zero findings rather than
  // risking a parse bomb. 0 disables the gate. Deterministic, so it IS part
  // of the options fingerprint.
  int64_t max_input_bytes = 0;

  symex::EngineOptions engine;
  lint::LintOptions lint;

  // Observability: when attached, every phase is traced as a span. Phase
  // wall times are always recorded in the report (a handful of clock reads
  // per analysis); with no journal nothing else is paid.
  obs::EventJournal* journal = nullptr;
};

// Wall time of one analysis phase, in the order the phases ran.
struct PhaseTiming {
  std::string name;  // "parse", "annotations", "lint", "stream-typing",
                     // "symex", "idempotence", "coach".
  int64_t micros = 0;
};

// The counts of one analysis, summed over a batch by `--stats`. The report
// JSON renders `engine` and `stream.pipelines_checked`; the other counts
// stay out of the report bytes, and so out of the cache.
struct AnalysisStats {
  int runs = 0;               // 1 once the phases ran (not for an input
                              // rejected by the byte gate).
  int findings = 0;           // Findings before deduplication.
  int warnings_or_worse = 0;  // Phase diagnostics at warning or above,
                              // before deduplication.
  symex::EngineStats engine;
  stream::CheckStats stream;

  // Sums `other` in (the engine's peak is the larger of the two).
  void Add(const AnalysisStats& other);
};

class AnalysisReport {
 public:
  const std::vector<Diagnostic>& findings() const { return findings_; }
  bool parse_ok() const { return parse_ok_; }
  const AnalysisStats& stats() const { return stats_; }
  const symex::EngineStats& engine_stats() const { return stats_.engine; }
  int pipelines_checked() const { return stats_.stream.pipelines_checked; }

  // Per-phase wall times (always populated) and their sum.
  const std::vector<PhaseTiming>& phase_timings() const { return phase_timings_; }
  int64_t total_micros() const;

  // True when the analysis was cut short (budget expiry or an exploration
  // cap); the report is complete as a document but its findings may not
  // cover the whole script. `degraded_reason()` is the machine-readable
  // cause: "timeout", "step-cap", "state-cap", "depth-cap",
  // "input-too-large", or "external".
  bool degraded() const { return degraded_; }
  const std::string& degraded_reason() const { return degraded_reason_; }

  bool HasCode(std::string_view code) const;
  size_t CountSeverity(Severity severity) const;
  // Errors or warnings present (parse errors included).
  bool Clean() const { return CountSeverity(Severity::kWarning) == 0; }

  // Human-readable rendering, one finding per paragraph.
  std::string ToString() const;

  // Machine-readable report (schema "sash-analysis-v1"): diagnostics,
  // per-phase wall times, and engine stats in one JSON document.
  std::string ToJson() const;
  // The same bytes, for callers written against the form that took an
  // optional extra argument and always passed nullptr.
  std::string ToJson(std::nullptr_t) const { return ToJson(); }

 private:
  friend class Analyzer;
  std::vector<Diagnostic> findings_;
  bool parse_ok_ = false;
  bool degraded_ = false;
  std::string degraded_reason_;
  AnalysisStats stats_;
  std::vector<PhaseTiming> phase_timings_;
};

// Adds the process-wide hot-path sizes, read now: "hotpath.intern.size" and
// "hotpath.dfa_cache.{hits,misses}" (the interner and the pattern cache are
// shared by every analysis in the process; the dfa_cache pair counts
// derived-language and inclusion lookups too).
void AddHotpathStats(obs::NamedValues* values);

class Analyzer {
 public:
  Analyzer() = default;
  explicit Analyzer(AnalyzerOptions options) : options_(std::move(options)) {}

  AnalyzerOptions& options() { return options_; }

  // Registers annotations from an external file (the ".sasht" mechanism);
  // they apply to every subsequent analysis, before inline annotations.
  void AddAnnotations(annot::AnnotationSet annotations);

  // Full pipeline: parse, apply inline annotations, lint, stream-type
  // checking, symbolic execution. Findings are sorted by source position.
  AnalysisReport AnalyzeSource(std::string_view source);

  // Analyzes an already-parsed program (no inline annotations available).
  AnalysisReport AnalyzeProgram(const syntax::Program& program);

 private:
  AnalysisReport Analyze(const syntax::Program& program, const annot::AnnotationSet& annotations,
                         std::vector<Diagnostic> initial);

  AnalyzerOptions options_;
  annot::AnnotationSet external_annotations_;
};

}  // namespace sash::core

#endif  // SASH_CORE_ANALYZER_H_
