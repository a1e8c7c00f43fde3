#include "util/diagnostics.h"

namespace sash {

std::string_view SeverityName(Severity s) {
  switch (s) {
    case Severity::kNote:
      return "note";
    case Severity::kInfo:
      return "info";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "unknown";
}

std::string Diagnostic::ToString() const {
  std::string out = range.ToString();
  out += " ";
  out += SeverityName(severity);
  if (!code.empty()) {
    out += "[";
    out += code;
    out += "]";
  }
  out += ": ";
  out += message;
  for (const DiagnosticNote& note : notes) {
    out += "\n  note: ";
    out += note.message;
  }
  return out;
}

Diagnostic& DiagnosticSink::Emit(Severity severity, std::string code, SourceRange range,
                                 std::string message) {
  Diagnostic d;
  d.severity = severity;
  d.code = std::move(code);
  d.range = range;
  d.message = std::move(message);
  diagnostics_.push_back(std::move(d));
  return diagnostics_.back();
}

size_t DiagnosticSink::CountAtLeast(Severity severity) const {
  size_t n = 0;
  for (const Diagnostic& d : diagnostics_) {
    if (d.severity >= severity) {
      ++n;
    }
  }
  return n;
}

}  // namespace sash
