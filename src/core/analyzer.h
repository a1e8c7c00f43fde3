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

  // Observability: when attached, every phase is traced as a span and the
  // subsystems publish their counters into the registry. Phase wall times are
  // always recorded in the report (a handful of clock reads per analysis);
  // with hooks unset nothing else is paid.
  obs::Hooks obs;
};

// Wall time of one analysis phase, in the order the phases ran.
struct PhaseTiming {
  std::string name;  // "parse", "annotations", "lint", "stream-typing",
                     // "symex", "idempotence", "coach".
  int64_t micros = 0;
};

class AnalysisReport {
 public:
  const std::vector<Diagnostic>& findings() const { return findings_; }
  bool parse_ok() const { return parse_ok_; }
  const symex::EngineStats& engine_stats() const { return engine_stats_; }
  int pipelines_checked() const { return pipelines_checked_; }

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
  // per-phase wall times, and engine stats in one JSON document. When
  // `metrics` is non-null its snapshot is embedded under "metrics".
  std::string ToJson(const obs::Registry* metrics = nullptr) const;

 private:
  friend class Analyzer;
  std::vector<Diagnostic> findings_;
  bool parse_ok_ = false;
  bool degraded_ = false;
  std::string degraded_reason_;
  symex::EngineStats engine_stats_;
  int pipelines_checked_ = 0;
  std::vector<PhaseTiming> phase_timings_;
};

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
