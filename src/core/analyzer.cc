#include "core/analyzer.h"

#include "core/deps.h"

#include <algorithm>
#include <set>

#include "regex/regex.h"
#include "util/intern.h"


namespace sash::core {

bool AnalysisReport::HasCode(std::string_view code) const {
  for (const Diagnostic& d : findings_) {
    if (d.code == code) {
      return true;
    }
  }
  return false;
}

size_t AnalysisReport::CountSeverity(Severity severity) const {
  size_t n = 0;
  for (const Diagnostic& d : findings_) {
    if (d.severity >= severity) {
      ++n;
    }
  }
  return n;
}

int64_t AnalysisReport::total_micros() const {
  int64_t total = 0;
  for (const PhaseTiming& p : phase_timings_) {
    total += p.micros;
  }
  return total;
}

std::string AnalysisReport::ToString() const {
  std::string out;
  for (const Diagnostic& d : findings_) {
    out += d.ToString();
    out += '\n';
  }
  if (findings_.empty()) {
    out = "no findings\n";
  }
  if (degraded_) {
    out += "analysis incomplete (" + degraded_reason_ + "): findings may be partial\n";
  }
  return out;
}

void AnalysisStats::Add(const AnalysisStats& other) {
  runs += other.runs;
  findings += other.findings;
  warnings_or_worse += other.warnings_or_worse;
  engine.Add(other.engine);
  stream.Add(other.stream);
}

std::string AnalysisReport::ToJson() const {
  obs::JsonWriter w;
  w.BeginObject();
  w.KV("schema", kAnalysisSchema);
  w.KV("parse_ok", parse_ok_);
  w.KV("clean", Clean());
  w.KV("degraded", degraded_);
  if (degraded_) {
    w.KV("degraded_reason", degraded_reason_);
  }
  w.Key("findings").BeginArray();
  for (const Diagnostic& d : findings_) {
    w.BeginObject();
    w.KV("severity", SeverityName(d.severity));
    w.KV("code", d.code);
    w.KV("line", int64_t{d.range.begin.line});
    w.KV("column", int64_t{d.range.begin.column});
    w.KV("offset", static_cast<int64_t>(d.range.begin.offset));
    w.KV("message", d.message);
    w.Key("notes").BeginArray();
    for (const DiagnosticNote& n : d.notes) {
      w.String(n.message);
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.Key("phases").BeginArray();
  for (const PhaseTiming& p : phase_timings_) {
    w.BeginObject();
    w.KV("name", p.name);
    w.KV("micros", p.micros);
    w.EndObject();
  }
  w.EndArray();
  w.KV("total_micros", total_micros());
  w.Key("stats").BeginObject();
  const symex::EngineStats& engine = stats_.engine;
  w.Key("engine").BeginObject();
  w.KV("commands_executed", int64_t{engine.commands_executed});
  w.KV("forks", int64_t{engine.forks});
  w.KV("states_peak", int64_t{engine.states_peak});
  w.KV("states_merged", int64_t{engine.states_merged});
  w.KV("states_dropped", int64_t{engine.states_dropped});
  w.KV("depth_cap_hits", int64_t{engine.depth_cap_hits});
  w.KV("final_states", int64_t{engine.final_states});
  w.KV("fs_ops", int64_t{engine.fs_ops});
  w.EndObject();
  w.KV("pipelines_checked", int64_t{stats_.stream.pipelines_checked});
  w.EndObject();
  w.EndObject();
  return w.Take();
}

void AddHotpathStats(obs::NamedValues* values) {
  (*values)["hotpath.intern.size"] = static_cast<int64_t>(util::Interner::size());
  (*values)["hotpath.dfa_cache.hits"] = static_cast<int64_t>(regex::PatternCache::Hits());
  (*values)["hotpath.dfa_cache.misses"] = static_cast<int64_t>(regex::PatternCache::Misses());
}

void Analyzer::AddAnnotations(annot::AnnotationSet annotations) {
  for (annot::TypeDef& t : annotations.types) {
    external_annotations_.types.push_back(std::move(t));
  }
  for (annot::CommandTypeDecl& c : annotations.commands) {
    external_annotations_.commands.push_back(std::move(c));
  }
  for (annot::VarConstraint& v : annotations.vars) {
    external_annotations_.vars.push_back(std::move(v));
  }
}

AnalysisReport Analyzer::AnalyzeSource(std::string_view source) {
  // Pre-parse byte gate: a pathological input is rejected before the parser
  // ever sees it, with a well-formed (empty) degraded report. Both the
  // static option and a token byte budget feed the same taxonomy.
  const bool too_large =
      options_.max_input_bytes > 0 &&
      static_cast<int64_t>(source.size()) > options_.max_input_bytes;
  if (options_.cancel != nullptr) {
    options_.cancel->ChargeBytes(static_cast<int64_t>(source.size()));
  }
  if (too_large ||
      (options_.cancel != nullptr &&
       options_.cancel->reason() == util::CancelReason::kInputTooLarge)) {
    AnalysisReport report;
    report.parse_ok_ = false;
    report.degraded_ = true;
    report.degraded_reason_ = util::CancelReasonName(util::CancelReason::kInputTooLarge);
    Diagnostic note;
    note.severity = Severity::kInfo;
    note.code = kCodeIncomplete;
    note.message = "input not analyzed: script exceeds the input byte budget";
    report.findings_.push_back(std::move(note));
    return report;
  }

  std::vector<PhaseTiming> front_phases;

  obs::Span parse_phase = obs::Span::Phase(options_.journal, "parse");
  syntax::ParseOutput parsed = syntax::Parse(source);
  front_phases.push_back({"parse", parse_phase.End()});

  obs::Span annot_phase = obs::Span::Phase(options_.journal, "annotations");
  DiagnosticSink annot_sink;
  annot::AnnotationSet annotations =
      options_.apply_annotations ? annot::ParseInlineAnnotations(source, &annot_sink)
                                 : annot::AnnotationSet{};
  front_phases.push_back({"annotations", annot_phase.End()});

  std::vector<Diagnostic> initial = std::move(parsed.diagnostics);
  for (Diagnostic& d : annot_sink.TakeAll()) {
    initial.push_back(std::move(d));
  }
  AnalysisReport report = Analyze(parsed.program, annotations, std::move(initial));
  report.phase_timings_.insert(report.phase_timings_.begin(),
                               std::make_move_iterator(front_phases.begin()),
                               std::make_move_iterator(front_phases.end()));
  report.parse_ok_ = true;
  for (const Diagnostic& d : report.findings_) {
    if (d.code == "SASH-PARSE" && d.severity == Severity::kError) {
      report.parse_ok_ = false;
    }
  }
  return report;
}

AnalysisReport Analyzer::AnalyzeProgram(const syntax::Program& program) {
  AnalysisReport report = Analyze(program, annot::AnnotationSet{}, {});
  report.parse_ok_ = true;
  return report;
}

AnalysisReport Analyzer::Analyze(const syntax::Program& program,
                                 const annot::AnnotationSet& annotations,
                                 std::vector<Diagnostic> initial) {
  AnalysisReport report;
  report.findings_ = std::move(initial);

  util::CancelToken* cancel = options_.cancel;

  // Runs `body` as a named, timed phase; the wall time always lands in the
  // report, the phase event only when a journal is attached. An expired
  // budget skips the phase outright — findings from phases already run
  // stand, and the report is tagged degraded below.
  auto phase = [&](const char* name, auto&& body) {
    if (cancel != nullptr && cancel->CheckNow()) {
      return;
    }
    obs::Span timer = obs::Span::Phase(options_.journal, name);
    body();
    report.phase_timings_.push_back({name, timer.End()});
  };

  // Resolve annotations against a working copy of the default type library
  // — external (.sasht) directives first, inline ones on top.
  rtypes::TypeLibrary types = rtypes::TypeLibrary::Default();
  DiagnosticSink sink;
  annot::AnnotationSet::Resolved resolved = external_annotations_.ResolveInto(&types, &sink);
  annot::AnnotationSet::Resolved inline_resolved = annotations.ResolveInto(&types, &sink);
  for (auto& ct : inline_resolved.command_types) {
    resolved.command_types.push_back(std::move(ct));
  }
  for (auto& vl : inline_resolved.var_langs) {
    resolved.var_langs.push_back(std::move(vl));
  }

  if (options_.enable_lint) {
    phase("lint", [&] {
      for (Diagnostic& d : lint::Lint(program, options_.lint)) {
        report.findings_.push_back(std::move(d));
      }
    });
  }

  if (options_.enable_stream_types) {
    phase("stream-typing", [&] {
      stream::PipelineChecker checker(types);
      checker.set_cancel(cancel);
      for (auto& [name, type] : resolved.command_types) {
        checker.AddCommandType(name, type);
      }
      report.stats_.stream = checker.CheckProgram(program, &sink);
    });
  }

  if (options_.enable_symex) {
    symex::EngineOptions engine_options = options_.engine;
    engine_options.cancel = cancel;
    for (const auto& [var, lang] : resolved.var_langs) {
      engine_options.var_patterns.emplace_back(var, lang.pattern());
    }
    std::vector<symex::State> finals;
    phase("symex", [&] {
      symex::Engine engine(engine_options, &sink);
      finals = engine.Run(program);
      report.stats_.engine = engine.stats();
    });

    if (options_.enable_idempotence_check) {
      phase("idempotence", [&] {
        // Collect first-run failure locations so only *new* second-run
        // failures count against idempotence.
        std::set<size_t> first_run_failures;
        for (const Diagnostic& d : sink.diagnostics()) {
          if (d.code == symex::kCodeAlwaysFails) {
            first_run_failures.insert(d.range.begin.offset);
          }
        }
        int rerun = 0;
        for (const symex::State& final_state : finals) {
          // Idempotence is conditioned on a *successful* first run: paths that
          // already assumed a command failure are out of scope.
          if (final_state.assumed_failure || final_state.exit.MustFail()) {
            continue;
          }
          if (++rerun > options_.idempotence_state_cap) {
            break;
          }
          // A second run starts with fresh variables but inherits the
          // file-system facts the first run established.
          DiagnosticSink second_sink;
          symex::EngineOptions second_options = engine_options;
          second_options.report_unset_vars = false;
          symex::Engine second(second_options, &second_sink);
          symex::State second_initial = second.MakeInitialState();
          second_initial.sfs = final_state.sfs;
          second.RunFrom(std::move(second_initial), program);
          for (const Diagnostic& d : second_sink.diagnostics()) {
            if (d.code == symex::kCodeAlwaysFails &&
                first_run_failures.count(d.range.begin.offset) == 0) {
              Diagnostic& out = sink.Emit(Severity::kWarning, kCodeNotIdempotent, d.range,
                                          "script is not idempotent: on a second run, " +
                                              d.message);
              out.notes.push_back(DiagnosticNote{
                  {}, "the first run leaves file-system state this command cannot handle"});
            }
          }
        }
      });
    }
  }

  if (options_.enable_optimization_coach) {
    phase("coach", [&] {
      DependencyReport deps = AnalyzeDependencies(program);
      for (const auto& [i, j] : deps.independent_adjacent) {
        sink.Emit(Severity::kInfo, kCodeParallelizable,
                  deps.commands[static_cast<size_t>(i)].range,
                  "`" + deps.commands[static_cast<size_t>(i)].display + "` and `" +
                      deps.commands[static_cast<size_t>(j)].display +
                      "` share no variables or file-system locations; they can be reordered "
                      "or run in parallel");
      }
    });
  }

  report.stats_.warnings_or_worse = static_cast<int>(sink.CountAtLeast(Severity::kWarning));
  for (Diagnostic& d : sink.TakeAll()) {
    report.findings_.push_back(std::move(d));
  }

  // Degradation classification + explicit truncation notes. Token expiry
  // wins (the whole pipeline was cut); otherwise the engine's own
  // exploration caps degrade the report deterministically. Messages carry
  // the configured cap — never the hit count, which varies across merge
  // strategies that must stay report-identical.
  auto incomplete = [&](std::string message) {
    Diagnostic note;
    note.severity = Severity::kInfo;
    note.code = kCodeIncomplete;
    note.message = std::move(message);
    report.findings_.push_back(std::move(note));
  };
  if (cancel != nullptr && cancel->CheckNow()) {
    report.degraded_ = true;
    report.degraded_reason_ = util::CancelReasonName(cancel->reason());
    incomplete("analysis cancelled (" + report.degraded_reason_ +
               "); later phases were skipped and findings may be partial");
  } else if (report.stats_.engine.states_dropped > 0) {
    report.degraded_ = true;
    report.degraded_reason_ = util::CancelReasonName(util::CancelReason::kStateCap);
    incomplete("symbolic execution hit the state cap (" +
               std::to_string(options_.engine.max_states) +
               "); some execution paths were dropped and findings may be partial");
  } else if (report.stats_.engine.depth_cap_hits > 0) {
    report.degraded_ = true;
    report.degraded_reason_ = util::CancelReasonName(util::CancelReason::kDepthCap);
    incomplete("symbolic execution hit the call-depth cap (" +
               std::to_string(options_.engine.max_call_depth) +
               "); deeper calls and substitutions were not explored");
  }

  report.stats_.runs = 1;
  report.stats_.findings = static_cast<int>(report.findings_.size());

  // Sort by position, then severity (most severe first), then code; drop
  // exact duplicates.
  std::stable_sort(report.findings_.begin(), report.findings_.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     if (a.range.begin.offset != b.range.begin.offset) {
                       return a.range.begin.offset < b.range.begin.offset;
                     }
                     if (a.severity != b.severity) {
                       return a.severity > b.severity;
                     }
                     return a.code < b.code;
                   });
  report.findings_.erase(
      std::unique(report.findings_.begin(), report.findings_.end(),
                  [](const Diagnostic& a, const Diagnostic& b) {
                    return a.code == b.code && a.range.begin.offset == b.range.begin.offset &&
                           a.message == b.message;
                  }),
      report.findings_.end());
  return report;
}

}  // namespace sash::core
