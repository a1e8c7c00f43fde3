#include "monitor/stream_monitor.h"

#include <algorithm>

namespace sash::monitor {

MonitoredRun StreamMonitor::Run(const syntax::Program& program, fs::FileSystem* fs,
                                InterpOptions options) const {
  MonitoredRun run;

  // Identify the pipeline and compute boundary expectations.
  const syntax::Command* pipe = program.body;
  std::vector<std::optional<regex::Regex>> boundary_expect;
  std::vector<std::string> stage_names;
  if (pipe != nullptr && pipe->kind == syntax::CommandKind::kPipeline) {
    stream::PipelineReport report = checker_.Check(*pipe);
    for (const stream::StageReport& s : report.stages) {
      stage_names.push_back(s.command);
    }
    // Boundary i sits between stage i and stage i+1.
    for (size_t i = 0; i + 1 < report.stages.size(); ++i) {
      const stream::StageReport& producer = report.stages[i];
      const stream::StageReport& consumer = report.stages[i + 1];
      bool adjacent_untyped = producer.untyped || consumer.untyped;
      if (!policy_.monitor_all_boundaries && !adjacent_untyped) {
        boundary_expect.emplace_back(std::nullopt);
        continue;
      }
      // The expectation at this boundary: the consumer's declared input type
      // when it has one; otherwise the producer's output type (so a typed
      // producer feeding an untyped consumer is still audited).
      if (consumer.input_expect.has_value()) {
        boundary_expect.emplace_back(consumer.input_expect);
      } else if (!producer.untyped && producer.output_lang.has_value() &&
                 policy_.monitor_all_boundaries) {
        boundary_expect.emplace_back(producer.output_lang);
      } else {
        boundary_expect.emplace_back(std::nullopt);
      }
      if (boundary_expect.back().has_value()) {
        ++run.boundaries_monitored;
      }
    }
  }

  Interpreter interp(fs, std::move(options));
  StreamViolation event;
  bool violated = false;
  size_t lines_checked = 0;
  // Each boundary checks the stage's output line by line, lines split as
  // SplitLines splits them (no empty line after a final '\n'; an unterminated
  // last line counts), and the first rejected line stops the scan. A type
  // whose start state accepts every line needs only the line count.
  interp.set_pipe_boundary_hook([&](int stage, std::string_view output, std::string* reason) {
    if (stage < 0 || static_cast<size_t>(stage) >= boundary_expect.size() ||
        !boundary_expect[static_cast<size_t>(stage)].has_value()) {
      return true;
    }
    const regex::Regex& expected = *boundary_expect[static_cast<size_t>(stage)];
    const regex::Dfa& dfa = expected.dfa();
    if (dfa.AcceptsEveryLine()) {
      lines_checked += static_cast<size_t>(std::count(output.begin(), output.end(), '\n'));
      if (!output.empty() && output.back() != '\n') {
        ++lines_checked;
      }
      return true;
    }
    size_t start = 0;
    while (start < output.size()) {
      size_t end = output.find('\n', start);
      if (end == std::string_view::npos) {
        end = output.size();
      }
      ++lines_checked;
      std::string_view line = output.substr(start, end - start);
      if (!dfa.AcceptsLine(line)) {
        violated = true;
        event.boundary = stage;
        event.line = std::string(line);
        event.expected = expected.pattern();
        event.producer = stage_names.empty() ? "" : stage_names[static_cast<size_t>(stage)];
        event.consumer = static_cast<size_t>(stage + 1) < stage_names.size()
                             ? stage_names[static_cast<size_t>(stage) + 1]
                             : "";
        *reason = "stream type violation at pipe boundary " + std::to_string(stage) +
                  ": line '" + event.line + "' ∉ " + expected.pattern();
        return false;
      }
      start = end + 1;
    }
    return true;
  });

  run.result = interp.Run(program);
  run.violation = violated;
  run.event = std::move(event);
  run.lines_checked = lines_checked;
  return run;
}

}  // namespace sash::monitor
