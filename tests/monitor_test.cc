#include <gtest/gtest.h>

#include "monitor/guard.h"
#include "monitor/interp.h"
#include "monitor/stream_monitor.h"
#include "stream/pipeline.h"
#include "syntax/parser.h"
#include "util/strings.h"

namespace sash::monitor {
namespace {

syntax::Program Parsed(std::string_view src) {
  syntax::ParseOutput out = syntax::Parse(src);
  EXPECT_TRUE(out.ok()) << src;
  return std::move(out.program);
}

InterpResult RunScript(fs::FileSystem& fs, std::string_view src, InterpOptions options = {}) {
  syntax::Program p = Parsed(src);
  Interpreter interp(&fs, std::move(options));
  return interp.Run(p);
}

// ---------- the concrete interpreter ----------

TEST(Interp, EchoAndVariables) {
  fs::FileSystem fs;
  InterpResult r = RunScript(fs, "x=world\necho \"hello $x\"\n");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.out, "hello world\n");
}

TEST(Interp, CommandSubstitutionAndArith) {
  fs::FileSystem fs;
  EXPECT_EQ(RunScript(fs, "echo $(echo nested)\n").out, "nested\n");
  EXPECT_EQ(RunScript(fs, "n=6\necho $((n * 7))\n").out, "42\n");
  EXPECT_EQ(RunScript(fs, "echo `echo backtick`\n").out, "backtick\n");
}

TEST(Interp, PipelinesCarryData) {
  fs::FileSystem fs;
  InterpResult r = RunScript(fs, "echo 'b\na\nc' | sort | head -n1\n");
  EXPECT_EQ(r.out, "a\n");
}

TEST(Interp, RunKeepsOnlyItsOwnTrace) {
  fs::FileSystem fs;
  ASSERT_TRUE(fs.WriteFile("/data.csv", "b\na\n").ok());
  ASSERT_FALSE(fs.trace().empty());
  const syntax::Program p = Parsed("cat /data.csv | sort\n");
  for (int i = 0; i < 3; ++i) {
    Interpreter interp(&fs, InterpOptions{});
    EXPECT_EQ(interp.Run(p).out, "a\nb\n");
    ASSERT_EQ(fs.trace().size(), 1u) << "run " << i;
    EXPECT_EQ(fs.trace()[0].op, fs::TraceOp::kRead);
    EXPECT_EQ(fs.trace()[0].path, "/data.csv");
  }
}

TEST(Interp, ControlFlow) {
  fs::FileSystem fs;
  EXPECT_EQ(RunScript(fs, "if [ 2 -gt 1 ]; then echo yes; else echo no; fi\n").out, "yes\n");
  EXPECT_EQ(RunScript(fs, "for i in 1 2 3; do echo $i; done\n").out, "1\n2\n3\n");
  EXPECT_EQ(RunScript(fs, "i=0\nwhile [ $i -lt 3 ]; do i=$((i+1)); echo $i; done\n").out,
            "1\n2\n3\n");
  EXPECT_EQ(RunScript(fs, "case abc in a*) echo glob ;; *) echo other ;; esac\n").out, "glob\n");
  EXPECT_EQ(RunScript(fs, "true && echo t || echo f\n").out, "t\n");
  EXPECT_EQ(RunScript(fs, "false && echo t || echo f\n").out, "f\n");
}

TEST(Interp, FunctionsAndArgs) {
  fs::FileSystem fs;
  EXPECT_EQ(RunScript(fs, "f() { echo \"got $1\"; }\nf hello\n").out, "got hello\n");
  InterpOptions opts;
  opts.args = {"first", "second"};
  EXPECT_EQ(RunScript(fs, "echo $1-$2-$#\n", opts).out, "first-second-2\n");
}

TEST(Interp, FileSystemEffects) {
  fs::FileSystem fs;
  InterpResult r = RunScript(fs, "mkdir -p /a/b\necho data > /a/b/f\ncat /a/b/f\n");
  EXPECT_EQ(r.out, "data\n");
  EXPECT_TRUE(fs.IsFile("/a/b/f"));
  RunScript(fs, "rm -r /a\n");
  EXPECT_FALSE(fs.Exists("/a"));
}

TEST(Interp, GlobExpansion) {
  fs::FileSystem fs;
  fs.MakeDir("/d", false);
  fs.WriteFile("/d/a.txt", "");
  fs.WriteFile("/d/b.txt", "");
  fs.WriteFile("/d/c.log", "");
  InterpResult r = RunScript(fs, "echo /d/*.txt\n");
  EXPECT_EQ(r.out, "/d/a.txt /d/b.txt\n");
}

TEST(Interp, TheSteamBugActuallyBites) {
  // Execute Fig. 1 concretely with a script path that has no directory
  // component: cd fails, STEAMROOT is empty, and rm -fr "/*" hits the root.
  fs::FileSystem fs;
  fs.MakeDir("/home/user/docs", true);
  fs.WriteFile("/home/user/notes.txt", "irreplaceable");
  fs.MakeDir("/usr/bin", true);
  InterpOptions opts;
  opts.script_name = "upd.sh";  // ${0%/*} == "upd.sh" -> cd fails.
  InterpResult r = RunScript(fs,
                             "STEAMROOT=\"$(cd \"${0%/*}\" && echo $PWD)\"\n"
                             "rm -fr \"$STEAMROOT\"/*\n",
                             opts);
  (void)r;
  // Everything user-writable is gone.
  EXPECT_FALSE(fs.Exists("/home/user/notes.txt"));
  EXPECT_FALSE(fs.Exists("/usr/bin"));
  EXPECT_EQ(fs.LiveNodeCount(), 1u);  // Only the root remains.
}

TEST(Interp, TheSteamBugSparesGoodPaths) {
  fs::FileSystem fs;
  fs.MakeDir("/home/user/.steam/sub", true);
  fs.WriteFile("/home/user/.steam/upd.sh", "");
  fs.WriteFile("/home/user/notes.txt", "safe");
  InterpOptions opts;
  opts.script_name = "/home/user/.steam/upd.sh";
  RunScript(fs,
            "STEAMROOT=\"$(cd \"${0%/*}\" && echo $PWD)\"\n"
            "rm -fr \"$STEAMROOT\"/*\n",
            opts);
  // The install dir is emptied; the rest of the home survives.
  EXPECT_FALSE(fs.Exists("/home/user/.steam/sub"));
  EXPECT_TRUE(fs.IsFile("/home/user/notes.txt"));
}

TEST(Interp, ParamOperators) {
  fs::FileSystem fs;
  EXPECT_EQ(RunScript(fs, "echo ${x:-default}\n").out, "default\n");
  EXPECT_EQ(RunScript(fs, "x=set\necho ${x:-default}\n").out, "set\n");
  EXPECT_EQ(RunScript(fs, "p=/a/b/c.txt\necho ${p%/*} ${p##*/}\n").out, "/a/b c.txt\n");
  InterpResult err = RunScript(fs, "echo ${missing:?custom message}\necho after\n");
  EXPECT_NE(err.exit_code, 0);
  EXPECT_NE(err.err.find("custom message"), std::string::npos);
  EXPECT_EQ(err.out.find("after"), std::string::npos);  // Script aborted.
}

TEST(Interp, StepBudgetStopsRunaways) {
  fs::FileSystem fs;
  InterpOptions opts;
  opts.max_steps = 100;
  InterpResult r = RunScript(fs, "while true; do :; done\n", opts);
  EXPECT_TRUE(r.budget_exceeded);
}

// ---------- the stream monitor ----------

TEST(StreamMonitor, CleanPipelineRunsThrough) {
  fs::FileSystem fs;
  syntax::Program p = Parsed("lsb_release -a | grep '^Desc' | cut -f2\n");
  StreamMonitor monitor;
  MonitoredRun run = monitor.Run(p, &fs, InterpOptions{});
  EXPECT_FALSE(run.violation);
  EXPECT_EQ(run.result.exit_code, 0);
  EXPECT_NE(run.result.out.find("Debian"), std::string::npos);
}

TEST(StreamMonitor, GradualBoundaryOnlyAroundUntyped) {
  fs::FileSystem fs;
  // All stages typed: nothing monitored under the gradual policy.
  syntax::Program typed = Parsed("echo abc | sort | head -n1\n");
  StreamMonitor gradual;
  MonitoredRun run = gradual.Run(typed, &fs, InterpOptions{});
  EXPECT_EQ(run.boundaries_monitored, 0u);
  EXPECT_EQ(run.lines_checked, 0u);
  // With an untyped stage feeding a bounded consumer, the boundary guards.
  fs::FileSystem fs2;
  fs2.WriteFile("/data", "3\n1\n2\n");
  syntax::Program mixed = Parsed("awk '{print}' /data | sort -n\n");
  MonitoredRun run2 = gradual.Run(mixed, &fs2, InterpOptions{});
  EXPECT_EQ(run2.boundaries_monitored, 1u);
}

TEST(StreamMonitor, ViolationHaltsExecution) {
  fs::FileSystem fs;
  fs.WriteFile("/data", "12\nnot-a-number\n7\n");
  // cat is typed; the consumer sort -n has a numeric bound. awk is untyped,
  // making the boundary monitored; the bad line must stop the run.
  syntax::Program p = Parsed("awk '{print}' /data | sort -n\n");
  // awk is unknown to the models, so swap in cat for execution but keep the
  // monitored shape via an untyped wrapper: use `tr` (typed as any) — use a
  // direct untyped producer instead: use the unknown command fallback.
  // Simplest honest setup: an untyped producer `myfilter` does not exist, so
  // instead mark all boundaries monitored and use cat.
  MonitorPolicy all;
  all.monitor_all_boundaries = true;
  StreamMonitor monitor(rtypes::TypeLibrary::Default(), all);
  syntax::Program p2 = Parsed("cat /data | sort -n\n");
  MonitoredRun run = monitor.Run(p2, &fs, InterpOptions{});
  (void)p;
  EXPECT_TRUE(run.violation);
  EXPECT_EQ(run.event.line, "not-a-number");
  EXPECT_NE(run.result.err.find("stream type violation"), std::string::npos);
  EXPECT_GE(run.lines_checked, 1u);
  EXPECT_LE(run.lines_checked, 2u);  // Halted before the third line.
}

TEST(StreamMonitor, OverheadIsMeasurable) {
  fs::FileSystem fs;
  std::string data;
  for (int i = 0; i < 100; ++i) {
    data += std::to_string(i) + "\n";
  }
  fs.WriteFile("/nums", data);
  MonitorPolicy all;
  all.monitor_all_boundaries = true;
  StreamMonitor monitor(rtypes::TypeLibrary::Default(), all);
  syntax::Program p = Parsed("cat /nums | sort -n\n");
  MonitoredRun run = monitor.Run(p, &fs, InterpOptions{});
  EXPECT_FALSE(run.violation);
  EXPECT_EQ(run.lines_checked, 100u);
}

// The one-pass boundary check must reproduce the per-line semantics:
// SplitLines the producer's output, match each line against the boundary's
// type in order, and stop at the first rejected line.
struct PerLineVerdict {
  bool violation = false;
  std::string line;
  size_t checked = 0;
};

PerLineVerdict CheckPerLine(const regex::Regex& expected, const std::string& output) {
  PerLineVerdict v;
  for (const std::string& line : SplitLines(output)) {
    ++v.checked;
    if (!expected.Matches(line)) {
      v.violation = true;
      v.line = line;
      break;
    }
  }
  return v;
}

// Runs a two-stage pipeline under full monitoring and compares the boundary
// verdict with the per-line reference over the producer's output.
MonitoredRun ExpectBoundaryMatchesPerLine(const std::string& pipeline,
                                          const std::string& producer_out, fs::FileSystem& fs,
                                          InterpOptions options = {}) {
  SCOPED_TRACE(pipeline);
  syntax::Program p = Parsed(pipeline);
  stream::PipelineReport report = stream::PipelineChecker().Check(*p.body);
  EXPECT_EQ(report.stages.size(), 2u);
  std::optional<regex::Regex> expected = report.stages[1].input_expect.has_value()
                                             ? report.stages[1].input_expect
                                             : report.stages[0].output_lang;
  if (!expected.has_value()) {
    ADD_FAILURE() << "no type at the boundary";
    return {};
  }
  PerLineVerdict want = CheckPerLine(*expected, producer_out);

  MonitorPolicy all;
  all.monitor_all_boundaries = true;
  StreamMonitor monitor(rtypes::TypeLibrary::Default(), all);
  MonitoredRun run = monitor.Run(p, &fs, std::move(options));
  EXPECT_EQ(run.violation, want.violation);
  EXPECT_EQ(run.lines_checked, want.checked);
  if (!want.violation) {
    EXPECT_EQ(run.event.boundary, -1);
    EXPECT_EQ(run.result.err.find("sash-monitor:"), std::string::npos);
    return run;
  }
  EXPECT_EQ(run.event.boundary, 0);
  EXPECT_EQ(run.event.line, want.line);
  EXPECT_EQ(run.event.expected, expected->pattern());
  EXPECT_EQ(run.result.exit_code, 1);
  EXPECT_TRUE(run.result.out.empty());  // The consumer never ran.
  std::string reason = "sash-monitor: stream type violation at pipe boundary 0: line '" +
                       want.line + "' ∉ " + expected->pattern() + "\n";
  EXPECT_EQ(run.result.err, reason);
  return run;
}

TEST(StreamMonitor, BoundaryCheckMatchesPerLineSemantics) {
  struct Case {
    std::string output;
    std::string bad_line;  // Empty: no violation.
    size_t checked;
  };
  const std::vector<Case> cases = {
      {"x1\n2\n3\n", "x1", 1},       // Violation on the first line.
      {"1\n2\nbad\n3\n", "bad", 3},  // Mid-buffer.
      {"1\n2\nbad", "bad", 3},       // On an unterminated last line.
      {"1\n2\n3", "", 3},            // Clean; the unterminated last line counts.
      {"1\n\n\n2\n", "", 4},         // Blank lines are within sort -n's bound.
      {"", "", 0},                    // Empty stage output: 0 lines checked.
      {"\n", "", 1},                  // One empty line.
  };
  for (const Case& c : cases) {
    fs::FileSystem fs;
    fs.WriteFile("/data", c.output);
    MonitoredRun run = ExpectBoundaryMatchesPerLine("cat /data | sort -n\n", c.output, fs);
    EXPECT_EQ(run.violation, !c.bad_line.empty()) << c.output;
    EXPECT_EQ(run.event.line, c.bad_line) << c.output;
    EXPECT_EQ(run.lines_checked, c.checked) << c.output;
  }
}

TEST(StreamMonitor, BoundaryCheckStopsAtAnEmptyLineMidBuffer) {
  // lsbline rejects the empty line a multi-line Description value emits.
  fs::FileSystem fs;
  InterpOptions options;
  options.world.description = "Debian\n";
  exec::RunResult lsb = exec::RunCommand(fs, {"lsb_release", "-a"}, "", options.world);
  ASSERT_NE(lsb.out.find("\n\n"), std::string::npos);
  MonitoredRun run = ExpectBoundaryMatchesPerLine("lsb_release -a | cat\n", lsb.out, fs, options);
  EXPECT_TRUE(run.violation);
  EXPECT_EQ(run.event.line, "");
  EXPECT_EQ(run.lines_checked, 3u);  // Distributor ID, Description, then the empty line.
}

// A number line that turns dead mid-line: the scan stops there, yet the
// event names the whole line.
TEST(StreamMonitor, LineRejectedMidLineIsReportedWhole) {
  for (const std::string output : {"1\n12x45678\n3\n", "7\n-\xff tail"}) {
    fs::FileSystem fs;
    fs.WriteFile("/data", output);
    MonitoredRun run = ExpectBoundaryMatchesPerLine("cat /data | sort -n\n", output, fs);
    EXPECT_TRUE(run.violation);
    EXPECT_EQ(run.event.line, SplitLines(output)[1]);
    EXPECT_EQ(run.lines_checked, 2u);
  }
}

// A boundary whose type accepts every line only counts lines, and counts
// them as SplitLines does.
TEST(StreamMonitor, AcceptEveryLineBoundaryCountsLikeSplitLines) {
  syntax::Program p = Parsed("cat /data | uniq\n");
  stream::PipelineReport report = stream::PipelineChecker().Check(*p.body);
  ASSERT_EQ(report.stages.size(), 2u);
  ASSERT_FALSE(report.stages[1].input_expect.has_value());
  ASSERT_TRUE(report.stages[0].output_lang.has_value());
  ASSERT_TRUE(report.stages[0].output_lang->dfa().AcceptsEveryLine());
  for (const std::string output : {"a\nb", "\n\n", "", "x\n\ny\n", "\n", "unterminated"}) {
    fs::FileSystem fs;
    fs.WriteFile("/data", output);
    MonitoredRun run = ExpectBoundaryMatchesPerLine("cat /data | uniq\n", output, fs);
    EXPECT_FALSE(run.violation);
    EXPECT_EQ(run.lines_checked, SplitLines(output).size()) << output;
  }
}

TEST(StreamMonitor, EmptyStageOutputChecksNothing) {
  fs::FileSystem fs;
  fs.WriteFile("/data", "");
  MonitorPolicy all;
  all.monitor_all_boundaries = true;
  StreamMonitor monitor(rtypes::TypeLibrary::Default(), all);
  MonitoredRun run = monitor.Run(Parsed("cat /data | sort -n | uniq\n"), &fs, InterpOptions{});
  EXPECT_FALSE(run.violation);
  EXPECT_EQ(run.boundaries_monitored, 2u);
  EXPECT_EQ(run.lines_checked, 0u);
  EXPECT_EQ(run.result.exit_code, 0);
  EXPECT_TRUE(run.result.out.empty());
}

// ---------- the effect guard / verify ----------

using symex::EffectPolicy;

TEST(Guard, BlocksProtectedWrites) {
  fs::FileSystem fs;
  fs.MakeDir("/home/user/mine", true);
  fs.WriteFile("/home/user/mine/secret", "s");
  EffectPolicy policy;
  policy.no_write = {"/home/user/mine"};
  syntax::Program p = Parsed("rm /home/user/mine/secret\n");
  VerifyReport report = Verify(p, policy, &fs, InterpOptions{}, /*execute=*/true);
  EXPECT_TRUE(report.blocked);
  EXPECT_NE(report.block_reason.find("/home/user/mine"), std::string::npos);
  EXPECT_TRUE(fs.IsFile("/home/user/mine/secret"));  // Halted before damage.
}

TEST(Guard, BlocksRedirectWrites) {
  fs::FileSystem fs;
  fs.MakeDir("/home/user/mine", true);
  EffectPolicy policy;
  policy.no_write = {"/home/user/mine"};
  syntax::Program p = Parsed("echo spam > /home/user/mine/inject\n");
  VerifyReport report = Verify(p, policy, &fs, InterpOptions{}, /*execute=*/true);
  EXPECT_TRUE(report.blocked);
  EXPECT_FALSE(fs.Exists("/home/user/mine/inject"));
}

TEST(Guard, BlocksProtectedReads) {
  fs::FileSystem fs;
  fs.MakeDir("/home/user/mine", true);
  fs.WriteFile("/home/user/mine/secret", "s3cr3t");
  EffectPolicy policy;
  policy.no_read = {"/home/user/mine"};
  syntax::Program p = Parsed("cat /home/user/mine/secret\n");
  VerifyReport report = Verify(p, policy, &fs, InterpOptions{}, /*execute=*/true);
  EXPECT_TRUE(report.blocked);
  EXPECT_EQ(report.run.out.find("s3cr3t"), std::string::npos);
}

TEST(Guard, AllowsInnocentScripts) {
  fs::FileSystem fs;
  fs.MakeDir("/home/user/mine", true);
  fs.MakeDir("/opt", false);
  EffectPolicy policy;
  policy.no_write = {"/home/user/mine"};
  syntax::Program p = Parsed("mkdir -p /opt/app\necho ok > /opt/app/stamp\n");
  VerifyReport report = Verify(p, policy, &fs, InterpOptions{}, /*execute=*/true);
  EXPECT_FALSE(report.blocked);
  EXPECT_TRUE(fs.IsFile("/opt/app/stamp"));
}

TEST(Guard, BlocksRootDeletion) {
  fs::FileSystem fs;
  fs.MakeDir("/usr", false);
  EffectPolicy policy;
  syntax::Program p = Parsed("rm -rf /\n");
  VerifyReport report = Verify(p, policy, &fs, InterpOptions{}, /*execute=*/true);
  EXPECT_TRUE(report.blocked);
  EXPECT_TRUE(fs.IsDir("/usr"));
}

TEST(Guard, BlocksRootGlobDeletion) {
  // Fig. 1 and the `.`/`..`/relative spellings of its target: each word is
  // a root glob before pathname expansion, and a list of root's entries
  // after it — the guard judges the former, by symex's danger language.
  const char* const kScripts[] = {
      "STEAMROOT=\"$(cd \"${0%/*}\" && echo \"$PWD\")\"\nrm -rf \"$STEAMROOT/\"*\n",
      "rm -rf /*\n",
      "rm -rf /tmp/../*\n",
      "D=$(dirname \"$0\"); rm -rf \"$D/../\"*\n",
      "cd / && rm -rf *\n",
  };
  for (const char* script : kScripts) {
    fs::FileSystem fs;
    fs.MakeDir("/home/user", true);
    fs.WriteFile("/home/user/notes", "n");
    fs.MakeDir("/tmp", false);
    VerifyReport report =
        Verify(Parsed(script), EffectPolicy{}, &fs, InterpOptions{}, /*execute=*/true);
    EXPECT_TRUE(report.blocked) << script;
    ASSERT_FALSE(report.static_findings.empty()) << script;
    EXPECT_EQ(report.static_findings[0].code, symex::kCodeDeleteRoot) << script;
    EXPECT_TRUE(fs.IsFile("/home/user/notes")) << script;
  }
}

TEST(Guard, StaticFindingsForStaticPaths) {
  EffectPolicy policy;
  policy.no_write = {"/home/user/mine"};
  // The paper's curl-to-sh scenario: up.sh touches ~/mine.
  syntax::Program p = Parsed("mkdir -p ~/mine/injected\necho payload > ~/mine/injected/f\n");
  fs::FileSystem fs;
  VerifyReport report = Verify(p, policy, &fs, InterpOptions{}, /*execute=*/false);
  EXPECT_FALSE(report.executed);
  ASSERT_GE(report.static_findings.size(), 2u);
  for (const Diagnostic& d : report.static_findings) {
    EXPECT_EQ(d.code, symex::kCodePolicy);
    EXPECT_EQ(d.severity, Severity::kError);
    EXPECT_NE(d.message.find("--no-rw"), std::string::npos);
    EXPECT_NE(d.message.find("/home/user/mine/injected"), std::string::npos);
  }
}

TEST(Guard, StaticCheckIsSilentOnDynamicPaths) {
  EffectPolicy policy;
  policy.no_write = {"/home/user/mine"};
  fs::FileSystem fs;
  fs.MakeDir("/home/user/mine", true);
  // TARGET comes from the environment at run time: nothing static to report.
  syntax::Program p = Parsed("rm -rf \"$TARGET\"\n");
  EXPECT_TRUE(Verify(p, policy, &fs, InterpOptions{}, /*execute=*/false).static_findings.empty());
  // A path symex can derive is reported before the run, and the guard
  // still blocks it during the run.
  syntax::Program armed = Parsed("TARGET=/home/user/mine\nrm -rf \"$TARGET\"\n");
  VerifyReport report = Verify(armed, policy, &fs, InterpOptions{}, /*execute=*/true);
  EXPECT_EQ(report.static_findings.size(), 1u);
  EXPECT_TRUE(report.blocked);
  EXPECT_TRUE(fs.IsDir("/home/user/mine"));
}

}  // namespace
}  // namespace sash::monitor
