#include <gtest/gtest.h>

#include "stream/dataflow.h"
#include "stream/pipeline.h"
#include "stream/typing_rules.h"
#include "syntax/parser.h"

namespace sash::stream {
namespace {

using rtypes::CommandType;
using rtypes::TypeLibrary;

const TypeLibrary& Lib() {
  static const TypeLibrary kLib = TypeLibrary::Default();
  return kLib;
}

std::optional<CommandType> TypeOf(std::vector<std::string> argv) {
  return TypeOfCommand(argv, Lib());
}

const syntax::Command& ParsePipeline(syntax::Program& storage, std::string_view src) {
  syntax::ParseOutput out = syntax::Parse(src);
  EXPECT_TRUE(out.ok()) << src;
  storage = std::move(out.program);
  return *storage.body;
}

TEST(TypingRules, GrepAnchoredSearch) {
  std::optional<CommandType> t = TypeOf({"grep", "^desc"});
  ASSERT_TRUE(t.has_value());
  ASSERT_TRUE(t->intersect_filter.has_value());
  EXPECT_TRUE(t->intersect_filter->Matches("description"));
  EXPECT_FALSE(t->intersect_filter->Matches("Description"));
}

TEST(TypingRules, GrepVariants) {
  std::optional<CommandType> v = TypeOf({"grep", "-v", "^#"});
  ASSERT_TRUE(v.has_value());
  EXPECT_TRUE(v->intersect_filter->Matches("data line"));
  EXPECT_FALSE(v->intersect_filter->Matches("# comment"));

  std::optional<CommandType> o = TypeOf({"grep", "-oE", "[0-9a-f]+"});
  ASSERT_TRUE(o.has_value());
  EXPECT_FALSE(o->intersect_filter.has_value());
  rtypes::ApplyResult r = Apply(*o, regex::Regex::AnyLine());
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.output->EquivalentTo(*regex::Regex::FromPattern("[0-9a-f]+")));

  std::optional<CommandType> c = TypeOf({"grep", "-c", "x"});
  ASSERT_TRUE(c.has_value());
  rtypes::ApplyResult rc = Apply(*c, regex::Regex::AnyLine());
  EXPECT_TRUE(rc.output->Matches("17"));

  std::optional<CommandType> q = TypeOf({"grep", "-q", "x"});
  ASSERT_TRUE(q.has_value());
  rtypes::ApplyResult rq = Apply(*q, regex::Regex::AnyLine());
  EXPECT_TRUE(rq.output_empty);  // By design; not a dead-stream bug.
}

TEST(TypingRules, SedPrefixAndSuffix) {
  std::optional<CommandType> pre = TypeOfSedScript("s/^/0x/");
  ASSERT_TRUE(pre.has_value());
  EXPECT_TRUE(pre->polymorphic);
  EXPECT_EQ(pre->ToString(), "∀α. α → 0xα");
  std::optional<CommandType> post = TypeOfSedScript("s/$/;/");
  ASSERT_TRUE(post.has_value());
  EXPECT_EQ(post->ToString(), "∀α. α → α;");
  // General substitutions are not given precise types.
  EXPECT_FALSE(TypeOfSedScript("s/a/b/").has_value());
  EXPECT_FALSE(TypeOfSedScript("y/ab/cd/").has_value());
  EXPECT_FALSE(TypeOfSedScript("s/^/a&b/").has_value());  // Backreference.
}

TEST(TypingRules, SortBounds) {
  std::optional<CommandType> plain = TypeOf({"sort"});
  ASSERT_TRUE(plain.has_value());
  EXPECT_TRUE(plain->polymorphic);
  EXPECT_FALSE(plain->bound.has_value());
  std::optional<CommandType> numeric = TypeOf({"sort", "-g"});
  ASSERT_TRUE(numeric.has_value());
  ASSERT_TRUE(numeric->bound.has_value());
  EXPECT_TRUE(numeric->bound->Matches("0xdeadbeef"));
  EXPECT_TRUE(numeric->bound->Matches("42"));
  EXPECT_TRUE(numeric->bound->Matches("-3"));
  EXPECT_FALSE(numeric->bound->Matches("deadbeef"));
}

TEST(TypingRules, MiscCommands) {
  EXPECT_TRUE(TypeOf({"cat"}).has_value());
  EXPECT_TRUE(TypeOf({"head", "-n3"}).has_value());
  EXPECT_TRUE(TypeOf({"uniq"}).has_value());
  std::optional<CommandType> uc = TypeOf({"uniq", "-c"});
  ASSERT_TRUE(uc.has_value());
  rtypes::ApplyResult r = Apply(*uc, *regex::Regex::FromPattern("[a-z]+"));
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.output->Matches("  3 apple"));
  EXPECT_FALSE(r.output->Matches("apple"));

  std::optional<CommandType> cut = TypeOf({"cut", "-f2"});
  ASSERT_TRUE(cut.has_value());
  rtypes::ApplyResult rcut = Apply(*cut, regex::Regex::AnyLine());
  EXPECT_TRUE(rcut.output->Matches("field"));
  EXPECT_FALSE(rcut.output->Matches("two\tfields"));

  std::optional<CommandType> lsb = TypeOf({"lsb_release", "-a"});
  ASSERT_TRUE(lsb.has_value());
  rtypes::ApplyResult rlsb = Apply(*lsb, regex::Regex::AnyLine());
  EXPECT_TRUE(rlsb.output->Matches("Codename:\tbookworm"));

  // Unknown commands are untyped.
  EXPECT_FALSE(TypeOf({"awk", "{print}"}).has_value());
  EXPECT_FALSE(TypeOf({"my-custom-tool"}).has_value());
}

// ---- Fig. 5: lsb_release -a | grep '^desc' | cut -f 2 ----

TEST(Pipeline, Fig5DeadStreamDetected) {
  syntax::Program storage;
  const syntax::Command& pipe =
      ParsePipeline(storage, "lsb_release -a | grep '^desc' | cut -f 2");
  PipelineChecker checker;
  PipelineReport report = checker.Check(pipe);
  ASSERT_EQ(report.stages.size(), 3u);
  EXPECT_TRUE(report.has_dead_stream);
  EXPECT_EQ(report.dead_stage, 1);  // The grep stage.
  EXPECT_TRUE(report.stages[1].killed_stream);
  EXPECT_TRUE(report.final_output->IsEmptyLanguage());
}

TEST(Pipeline, Fig5CorrectedFilterIsLive) {
  syntax::Program storage;
  const syntax::Command& pipe =
      ParsePipeline(storage, "lsb_release -a | grep '^Desc' | cut -f 2");
  PipelineChecker checker;
  PipelineReport report = checker.Check(pipe);
  EXPECT_FALSE(report.has_dead_stream);
  EXPECT_FALSE(report.final_output->IsEmptyLanguage());
}

TEST(Pipeline, CheckProgramEmitsDiagnostic) {
  syntax::ParseOutput parsed = syntax::Parse(
      "case $(lsb_release -a | grep '^desc' | cut -f 2) in\n"
      "Debian) SUFFIX=.config ;;\n"
      "esac\n");
  ASSERT_TRUE(parsed.ok());
  DiagnosticSink sink;
  PipelineChecker checker;
  CheckStats checked = checker.CheckProgram(parsed.program, &sink);
  EXPECT_EQ(checked.pipelines_checked, 1);
  EXPECT_EQ(checked.stages_typed, 3);
  EXPECT_EQ(checked.dead_streams, 1);
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink.diagnostics()[0].code, kCodeDeadStream);
  EXPECT_EQ(sink.diagnostics()[0].severity, Severity::kError);
}

// ---- §4: the hex pipeline needs polymorphism ----

TEST(Pipeline, HexPipelineChecksWithPolymorphicTypes) {
  syntax::Program storage;
  const syntax::Command& pipe =
      ParsePipeline(storage, "grep -oE '[0-9a-f]+' | sed 's/^/0x/' | sort -g");
  PipelineChecker checker;
  PipelineReport report = checker.Check(pipe);
  ASSERT_EQ(report.stages.size(), 3u);
  EXPECT_FALSE(report.has_type_error) << report.stages[2].error;
  EXPECT_FALSE(report.has_dead_stream);
  // The sort stage received 0x[0-9a-f]+, within its numeric bound.
  EXPECT_TRUE(report.final_output->EquivalentTo(*regex::Regex::FromPattern("0x[0-9a-f]+")));
}

TEST(Pipeline, HexPipelineWithSimpleTypesFails) {
  // Erase sed's polymorphism by building the simple type chain manually:
  // sed :: .* → 0x.*, then sort -g's bound check must fail (the paper's
  // "these two types alone are unable to establish ...").
  std::optional<CommandType> sort_g = TypeOf({"sort", "-g"});
  ASSERT_TRUE(sort_g.has_value());
  rtypes::ApplyResult failed = Apply(*sort_g, *regex::Regex::FromPattern("0x.*"));
  EXPECT_FALSE(failed.ok);
}

TEST(Pipeline, UntypedStageDegradesGracefully) {
  syntax::Program storage;
  const syntax::Command& pipe = ParsePipeline(storage, "cat log | awk '{print $1}' | sort");
  PipelineChecker checker;
  PipelineReport report = checker.Check(pipe);
  ASSERT_EQ(report.stages.size(), 3u);
  EXPECT_TRUE(report.stages[1].untyped);
  EXPECT_EQ(report.untyped_stages, (std::vector<int>{1}));
  EXPECT_FALSE(report.has_dead_stream);
}

TEST(Pipeline, GrepChainNarrowsIncrementally) {
  syntax::Program storage;
  const syntax::Command& pipe = ParsePipeline(storage, "grep '^a' | grep 'z$'");
  PipelineChecker checker;
  PipelineReport report = checker.Check(pipe);
  EXPECT_FALSE(report.has_dead_stream);
  EXPECT_TRUE(report.final_output->Matches("abcz"));
  EXPECT_FALSE(report.final_output->Matches("abc"));
  EXPECT_FALSE(report.final_output->Matches("bz"));
}

TEST(Pipeline, ContradictoryGrepsAreDead) {
  syntax::Program storage;
  const syntax::Command& pipe = ParsePipeline(storage, "grep '^a' | grep '^b'");
  PipelineChecker checker;
  PipelineReport report = checker.Check(pipe);
  EXPECT_TRUE(report.has_dead_stream);
  EXPECT_EQ(report.dead_stage, 1);
}

// ---- §4: circular dataflow fixpoints ----

TEST(Dataflow, AcyclicChainConverges) {
  DataflowGraph g;
  CommandType ident;
  ident.polymorphic = true;
  ident.input = rtypes::TypeExpr::Var();
  ident.output = rtypes::TypeExpr::Var();
  int a = g.AddNode(ident, "cat");
  CommandType filter;
  filter.intersect_filter = *regex::Regex::FromPattern("job-.*");
  int b = g.AddNode(filter, "grep job-");
  g.AddEdge(a, b);
  g.Seed(a, *regex::Regex::FromPattern("(job|user)-[a-z]+"));
  DataflowGraph::Solution sol = g.SolveLeastFixpoint();
  EXPECT_TRUE(sol.converged);
  EXPECT_TRUE(sol.widened.empty());
  EXPECT_TRUE(sol.node_output[1].Matches("job-queue"));
  EXPECT_FALSE(sol.node_output[1].Matches("user-queue"));
}

TEST(Dataflow, CycleWithIdentityConverges) {
  // A crawler-style ring: cat seeds URLs, a filter keeps them, output feeds
  // back. The invariant stabilizes after a few passes ("often
  // straightforward due to the semantics of cat ... at the beginning of such
  // cycles").
  DataflowGraph g;
  CommandType ident;
  ident.polymorphic = true;
  ident.input = rtypes::TypeExpr::Var();
  ident.output = rtypes::TypeExpr::Var();
  CommandType filter;
  filter.intersect_filter = *regex::Regex::FromPattern("https?://.*");
  int head = g.AddNode(ident, "cat frontier");
  int worker = g.AddNode(filter, "grep '^http'");
  g.AddEdge(head, worker);
  g.AddEdge(worker, head);  // Feedback edge.
  g.Seed(head, *regex::Regex::FromPattern("https?://[a-z.]+/.*"));
  DataflowGraph::Solution sol = g.SolveLeastFixpoint();
  EXPECT_TRUE(sol.converged);
  EXPECT_TRUE(sol.widened.empty());
  EXPECT_TRUE(sol.node_output[head].Matches("https://example.com/x"));
  EXPECT_FALSE(sol.node_output[head].Matches("ftp://example.com/x"));
  EXPECT_LE(sol.iterations, 8);
}

TEST(Dataflow, GrowingCycleIsWidened) {
  // A transformer that keeps prefixing text grows forever; widening must
  // terminate the ascent.
  DataflowGraph g;
  CommandType prefixer;
  prefixer.polymorphic = true;
  prefixer.input = rtypes::TypeExpr::Var();
  prefixer.output =
      rtypes::TypeExpr::Concat({rtypes::TypeExpr::Prefix(">"), rtypes::TypeExpr::Var()});
  int n = g.AddNode(prefixer, "sed 's/^/>/'");
  g.AddEdge(n, n);
  g.Seed(n, regex::Regex::Literal("msg"));
  DataflowGraph::Solution sol = g.SolveLeastFixpoint(/*max_iterations=*/64, /*widen_after=*/6);
  EXPECT_TRUE(sol.converged);
  ASSERT_EQ(sol.widened.size(), 1u);
  EXPECT_TRUE(sol.node_output[n].IsUniversal() ||
              sol.node_output[n].Matches(">>>>>>>>>>msg"));
}

TEST(Dataflow, EmptySeedStaysEmpty) {
  DataflowGraph g;
  CommandType ident;
  ident.polymorphic = true;
  ident.input = rtypes::TypeExpr::Var();
  ident.output = rtypes::TypeExpr::Var();
  int n = g.AddNode(ident, "cat");
  g.AddEdge(n, n);
  DataflowGraph::Solution sol = g.SolveLeastFixpoint();
  EXPECT_TRUE(sol.converged);
  EXPECT_EQ(sol.iterations, 1);
  EXPECT_TRUE(sol.node_output[n].IsEmptyLanguage());
}

}  // namespace
}  // namespace sash::stream
