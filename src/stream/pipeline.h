// Pipeline stream-type checking: fold command types over the stages of a
// pipeline, detecting dead streams (Fig. 5: an intersection that empties the
// stream means downstream stages can never see data) and type errors, and
// reporting untyped stages for the monitor to guard.
#ifndef SASH_STREAM_PIPELINE_H_
#define SASH_STREAM_PIPELINE_H_

#include <optional>
#include <string>
#include <vector>

#include "rtypes/types.h"
#include "syntax/ast.h"
#include "util/cancel.h"
#include "util/diagnostics.h"

namespace sash::stream {

// Diagnostic codes.
inline constexpr char kCodeDeadStream[] = "SASH-DEAD-STREAM";
inline constexpr char kCodeStreamTypeError[] = "SASH-STREAM-TYPE";

struct StageReport {
  std::string command;                      // Display text of the stage.
  std::optional<std::string> type_display;  // The stage's type, if typed.
  bool untyped = false;
  bool type_error = false;
  std::string error;
  bool killed_stream = false;  // Nonempty input ∩ filter became empty here.
  std::string output_pattern;  // Line language leaving this stage.
  std::optional<regex::Regex> output_lang;   // Same, as a language.
  std::optional<regex::Regex> input_expect;  // Declared input expectation.
};

struct PipelineReport {
  std::vector<StageReport> stages;
  std::optional<regex::Regex> final_output;
  bool has_dead_stream = false;
  int dead_stage = -1;  // First stage that killed the stream.
  bool has_type_error = false;
  std::vector<int> untyped_stages;  // Candidates for runtime monitoring.
};

// Typing-rule counts of one CheckProgram walk (the analyzer keeps them in
// its report; `--stats` prints their sum as "stream.*").
struct CheckStats {
  int pipelines_checked = 0;
  int stages_typed = 0;
  int stages_untyped = 0;
  int type_errors = 0;
  int dead_streams = 0;

  void Add(const CheckStats& other);
};

class PipelineChecker {
 public:
  explicit PipelineChecker(rtypes::TypeLibrary lib = rtypes::TypeLibrary::Default())
      : lib_(std::move(lib)) {}

  // Registers a user-declared command type (from annotations); overrides the
  // built-in typing rules for that command name.
  void AddCommandType(std::string command, rtypes::CommandType type) {
    overrides_.emplace_back(std::move(command), std::move(type));
  }

  // Optional cooperative cancellation: CheckProgram polls the token per
  // pipeline and stops checking once it expires (already-emitted diagnostics
  // stand; the remaining pipelines are simply not checked).
  void set_cancel(util::CancelToken* cancel) { cancel_ = cancel; }

  // Checks one pipeline (or single command) against an input line type.
  PipelineReport Check(const syntax::Command& cmd,
                       regex::Regex input = regex::Regex::AnyLine()) const;

  // Walks a whole program (including command substitutions), checking every
  // multi-stage pipeline and emitting kCodeDeadStream / kCodeStreamTypeError
  // diagnostics into `sink`. Returns the pipelines checked and their stage
  // verdicts.
  CheckStats CheckProgram(const syntax::Program& program, DiagnosticSink* sink) const;

  const rtypes::TypeLibrary& library() const { return lib_; }

 private:
  std::optional<rtypes::CommandType> TypeOfStage(const syntax::Command& cmd) const;

  rtypes::TypeLibrary lib_;
  std::vector<std::pair<std::string, rtypes::CommandType>> overrides_;
  util::CancelToken* cancel_ = nullptr;
};

}  // namespace sash::stream

#endif  // SASH_STREAM_PIPELINE_H_
