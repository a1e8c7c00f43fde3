// Diagnostics: the common currency every analysis stage (lint, symbolic
// execution, stream typing, monitoring) uses to report findings back to users.
//
// A Diagnostic carries a severity, a stable rule code (e.g. "SASH-DEL-ROOT"),
// a source range, a human-readable message, and optional notes such as the
// symbolic witness environment that triggers the bug.
#ifndef SASH_UTIL_DIAGNOSTICS_H_
#define SASH_UTIL_DIAGNOSTICS_H_

#include <string>
#include <string_view>
#include <vector>

#include "util/source_location.h"

namespace sash {

enum class Severity {
  kNote,     // Supplementary information attached to another finding.
  kInfo,     // Non-actionable observation (e.g. inferred type display).
  kWarning,  // Likely bug on some execution path.
  kError,    // Bug on all execution paths, or a parse failure.
};

std::string_view SeverityName(Severity s);

// A secondary message attached to a diagnostic, e.g. "witness: $0 = 'upd.sh'".
struct DiagnosticNote {
  SourceRange range;  // May be empty when the note is not anchored to code.
  std::string message;
};

struct Diagnostic {
  Severity severity = Severity::kWarning;
  std::string code;     // Stable machine-readable rule id.
  SourceRange range;    // Primary source anchor.
  std::string message;  // Human-readable description.
  std::vector<DiagnosticNote> notes;

  // Renders "12:3 error[SASH-DEL-ROOT]: message" plus indented notes.
  std::string ToString() const;
};

// An append-only sink shared by analysis passes. Collects diagnostics in
// emission order; the analyzer sorts and dedups at report time.
class DiagnosticSink {
 public:
  Diagnostic& Emit(Severity severity, std::string code, SourceRange range, std::string message);

  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }
  std::vector<Diagnostic> TakeAll() { return std::move(diagnostics_); }
  bool empty() const { return diagnostics_.empty(); }
  size_t size() const { return diagnostics_.size(); }

  // Count of diagnostics at a given severity or above.
  size_t CountAtLeast(Severity severity) const;

  void Clear() { diagnostics_.clear(); }

 private:
  std::vector<Diagnostic> diagnostics_;
};

}  // namespace sash

#endif  // SASH_UTIL_DIAGNOSTICS_H_
