#include "stream/pipeline.h"

#include "stream/typing_rules.h"

namespace sash::stream {

void CheckStats::Add(const CheckStats& other) {
  pipelines_checked += other.pipelines_checked;
  stages_typed += other.stages_typed;
  stages_untyped += other.stages_untyped;
  type_errors += other.type_errors;
  dead_streams += other.dead_streams;
}

std::optional<rtypes::CommandType> PipelineChecker::TypeOfStage(
    const syntax::Command& cmd) const {
  if (cmd.kind == syntax::CommandKind::kSimple && !cmd.simple.words.empty()) {
    std::string name;
    if (cmd.simple.words[0].IsStatic(&name)) {
      for (const auto& [override_name, type] : overrides_) {
        if (override_name == name) {
          return type;
        }
      }
    }
  }
  return TypeOfSimpleCommand(cmd, lib_);
}

PipelineReport PipelineChecker::Check(const syntax::Command& cmd, regex::Regex input) const {
  PipelineReport report;
  std::vector<const syntax::Command*> stages;
  if (cmd.kind == syntax::CommandKind::kPipeline) {
    for (const syntax::CommandPtr& c : cmd.pipeline.commands) {
      stages.push_back(c);
    }
  } else {
    stages.push_back(&cmd);
  }

  regex::Regex current = std::move(input);
  bool stream_known = true;  // False after an untyped stage.
  for (size_t i = 0; i < stages.size(); ++i) {
    StageReport stage;
    stage.command = syntax::ToShellSyntax(*stages[i]);
    std::optional<rtypes::CommandType> type = TypeOfStage(*stages[i]);
    if (!type.has_value()) {
      stage.untyped = true;
      report.untyped_stages.push_back(static_cast<int>(i));
      current = regex::Regex::AnyLine();  // The stage may emit anything.
      stream_known = false;
      stage.output_pattern = current.pattern();
      stage.output_lang = current;
      report.stages.push_back(std::move(stage));
      continue;
    }
    stage.type_display = type->ToString();
    // The stage's declared input expectation: the bound for bounded
    // polymorphic types, the fixed input language for monomorphic ones.
    if (type->polymorphic && type->bound.has_value()) {
      stage.input_expect = *type->bound;
    } else if (!type->polymorphic && !type->intersect_filter.has_value()) {
      stage.input_expect = type->input.Substitute(regex::Regex::AnyLine());
    }
    bool input_was_empty = current.IsEmptyLanguage();
    rtypes::ApplyResult applied = rtypes::Apply(*type, current);
    if (!applied.ok) {
      stage.type_error = true;
      stage.error = applied.error;
      report.has_type_error = true;
      current = regex::Regex::AnyLine();  // Recover to keep checking.
      stream_known = false;
      stage.output_pattern = current.pattern();
      stage.output_lang = current;
      report.stages.push_back(std::move(stage));
      continue;
    }
    current = *applied.output;
    stage.output_pattern = current.pattern();
    stage.output_lang = current;
    // Dead-stream criterion: a *filtering* stage reduced a live stream to
    // the empty language. By-design silence (grep -q) has no filter.
    if (applied.output_empty && !input_was_empty && stream_known &&
        type->intersect_filter.has_value()) {
      stage.killed_stream = true;
      if (!report.has_dead_stream) {
        report.has_dead_stream = true;
        report.dead_stage = static_cast<int>(i);
      }
    }
    report.stages.push_back(std::move(stage));
  }
  report.final_output = std::move(current);
  return report;
}

CheckStats PipelineChecker::CheckProgram(const syntax::Program& program,
                                         DiagnosticSink* sink) const {
  CheckStats stats;
  syntax::VisitCommands(program, /*into_substitutions=*/true, [&](const syntax::Command& cmd) {
    if (cmd.kind != syntax::CommandKind::kPipeline || cmd.pipeline.commands.size() < 2) {
      return;
    }
    if (cancel_ != nullptr && cancel_->CheckStep()) {
      return;
    }
    ++stats.pipelines_checked;
    PipelineReport report = Check(cmd);
    for (const StageReport& stage : report.stages) {
      ++(stage.untyped ? stats.stages_untyped : stats.stages_typed);
      stats.type_errors += stage.type_error ? 1 : 0;
      stats.dead_streams += stage.killed_stream ? 1 : 0;
    }
    if (report.has_dead_stream && sink != nullptr) {
      const StageReport& stage = report.stages[static_cast<size_t>(report.dead_stage)];
      Diagnostic& d = sink->Emit(
          Severity::kError, kCodeDeadStream, cmd.range,
          "pipeline stage '" + stage.command +
              "' can never produce output: its filter does not intersect the incoming "
              "stream type");
      for (int i = 0; i < report.dead_stage; ++i) {
        const StageReport& prev = report.stages[static_cast<size_t>(i)];
        d.notes.push_back(DiagnosticNote{
            {}, prev.command + " :: " + prev.type_display.value_or("(untyped)")});
      }
      d.notes.push_back(DiagnosticNote{
          {}, stage.command + " :: " + stage.type_display.value_or("(untyped)")});
      d.notes.push_back(DiagnosticNote{{}, "the intersection of the stream and the filter is "
                                           "the empty language"});
    }
    if (report.has_type_error && sink != nullptr) {
      for (const StageReport& stage : report.stages) {
        if (stage.type_error) {
          sink->Emit(Severity::kWarning, kCodeStreamTypeError, cmd.range,
                     "pipeline stage '" + stage.command + "' rejects its input: " + stage.error);
        }
      }
    }
  });
  return stats;
}

}  // namespace sash::stream
