#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "core/analyzer.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "obs/profile.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace sash::obs {
namespace {

// --- JSON writer / parser -------------------------------------------------

TEST(Json, WriterEmitsValidDocument) {
  JsonWriter w;
  w.BeginObject();
  w.KV("name", "a \"quoted\" \n value");
  w.KV("count", int64_t{42});
  w.KV("ratio", 0.5);
  w.KV("flag", true);
  w.Key("items").BeginArray().Int(1).Int(2).Int(3).EndArray();
  w.Key("nested").BeginObject().KV("x", int64_t{-7}).EndObject();
  w.EndObject();
  std::optional<JsonValue> doc = JsonValue::Parse(w.str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->Find("name")->string, "a \"quoted\" \n value");
  EXPECT_EQ(doc->Find("count")->number, 42);
  EXPECT_EQ(doc->Find("flag")->boolean, true);
  EXPECT_EQ(doc->Find("items")->array.size(), 3u);
  EXPECT_EQ(doc->Find("nested")->Find("x")->number, -7);
}

TEST(Json, ParserRejectsGarbage) {
  EXPECT_FALSE(JsonValue::Parse("{").has_value());
  EXPECT_FALSE(JsonValue::Parse("{}extra").has_value());
  EXPECT_FALSE(JsonValue::Parse("{'single':1}").has_value());
  EXPECT_FALSE(JsonValue::Parse("[1,]").has_value());
  EXPECT_TRUE(JsonValue::Parse("[1, 2.5, \"s\", null, true, {}]").has_value());
}

TEST(Json, ParserDecodesEscapes) {
  std::optional<JsonValue> doc = JsonValue::Parse(R"(["A\t\\\"", "é"])");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->array[0].string, "A\t\\\"");
  EXPECT_EQ(doc->array[1].string, "\xc3\xa9");
}

// --- tracing --------------------------------------------------------------

// The "X" events of a rendered Chrome trace, in trace order.
std::vector<JsonValue> ChromeSpans(const EventJournal& journal) {
  std::optional<JsonValue> doc =
      JsonValue::Parse(RenderTimeline(journal.Drain(), journal.dropped()).chrome_json);
  std::vector<JsonValue> spans;
  if (doc.has_value() && doc->Find("traceEvents") != nullptr) {
    for (const JsonValue& e : doc->Find("traceEvents")->array) {
      if (e.Find("ph")->string == "X") {
        spans.push_back(e);
      }
    }
  }
  return spans;
}

TEST(Trace, SpansNestAndContain) {
  EventJournal journal(1024);
  {
    Span outer(&journal, "outer");
    {
      Span inner(&journal, "inner");
    }
    Span sibling(&journal, "sibling");
    sibling.End();
    EXPECT_EQ(sibling.End(), 0);  // Second End is a no-op.
  }
  // One span event per span, emitted as each ends, stamped with its start.
  std::vector<Event> raw = journal.Drain();
  ASSERT_EQ(raw.size(), 3u);
  EXPECT_STREQ(raw[0].name, "inner");
  EXPECT_EQ(raw[0].kind, EventKind::kSpan);
  EXPECT_EQ(raw[2].b, 0);  // outer's depth.

  std::vector<JsonValue> events = ChromeSpans(journal);
  ASSERT_EQ(events.size(), 3u);
  auto depth = [](const JsonValue& e) { return e.Find("args")->Find("depth")->number; };
  auto ts = [](const JsonValue& e) { return e.Find("ts")->number; };
  auto end = [](const JsonValue& e) { return e.Find("ts")->number + e.Find("dur")->number; };
  // Sorted by start: outer first, then its children.
  EXPECT_EQ(events[0].Find("name")->string, "outer");
  EXPECT_EQ(depth(events[0]), 0);
  EXPECT_EQ(events[1].Find("name")->string, "inner");
  EXPECT_EQ(depth(events[1]), 1);
  EXPECT_EQ(events[2].Find("name")->string, "sibling");
  EXPECT_EQ(depth(events[2]), 1);
  // Containment: children start at or after the parent and end within it
  // (both are whole microseconds truncated from one clock, so allow one).
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(ts(events[i]), ts(events[0]));
    EXPECT_LE(end(events[i]), end(events[0]) + 1);
  }
}

TEST(Trace, NullJournalSpansAreNoops) {
  Span span(nullptr, "nothing");
  EXPECT_EQ(span.End(), 0);  // Must not crash; nothing recorded anywhere.
}

TEST(Trace, PhaseIsTimedWithOrWithoutJournal) {
  Span disarmed = Span::Phase(nullptr, "parse");
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_GE(disarmed.End(), 1000);

  EventJournal journal(1024);
  Span armed = Span::Phase(&journal, "parse");
  int64_t micros = armed.End();
  std::vector<Event> events = journal.Drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, EventKind::kPhase);
  EXPECT_EQ(events[0].a, micros);  // One timer: the report's number is the event's.
}

TEST(Trace, ChromeJsonIsWellFormed) {
  EventJournal journal(1024);
  { Span span(&journal, "phase \"x\""); }
  std::optional<JsonValue> doc =
      JsonValue::Parse(RenderTimeline(journal.Drain(), journal.dropped()).chrome_json);
  ASSERT_TRUE(doc.has_value());
  const JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->array.size(), 1u);
  EXPECT_EQ(doc->Find("otherData")->Find("dropped")->number, 0);
  const JsonValue& e = events->array[0];
  EXPECT_EQ(e.Find("ph")->string, "X");
  EXPECT_EQ(e.Find("name")->string, "phase \"x\"");
  EXPECT_NE(e.Find("ts"), nullptr);
  EXPECT_NE(e.Find("dur"), nullptr);
  EXPECT_NE(e.Find("pid"), nullptr);
  EXPECT_NE(e.Find("tid"), nullptr);
}

// --- bench report ---------------------------------------------------------

TEST(BenchReport, EmitterOutputValidates) {
  const NamedValues metrics = {{"x.ops", 3}, {"cache.hits", 5}};
  std::vector<BenchRun> runs;
  runs.push_back({"BM_Thing/64", 1000, 2500.0, 2400.0});
  std::string json = BenchReportJson("thing", runs, metrics);
  std::optional<JsonValue> doc = JsonValue::Parse(json);
  ASSERT_TRUE(doc.has_value());
  EXPECT_TRUE(ValidateBenchReport(*doc).empty());
  EXPECT_EQ(doc->Find("schema")->string, kBenchSchema);
  EXPECT_EQ(doc->Find("bench")->string, "thing");
  EXPECT_EQ(doc->Find("runs")->array.size(), 1u);
  EXPECT_EQ(doc->Find("metrics")->Find("gauges")->Find("x.ops")->number, 3);
  EXPECT_EQ(doc->Find("cache")->Find("hits")->number, 5);
  EXPECT_EQ(doc->Find("cache")->Find("misses")->number, 0);
}

TEST(BenchReport, ValidatorRejectsCorruptedDocuments) {
  std::optional<JsonValue> missing_schema = JsonValue::Parse(R"({"bench":"x","runs":[]})");
  ASSERT_TRUE(missing_schema.has_value());
  EXPECT_FALSE(ValidateBenchReport(*missing_schema).empty());

  std::optional<JsonValue> bad_run = JsonValue::Parse(
      R"({"schema":"sash-bench-v1","bench":"x","runs":[{"iterations":5}],)"
      R"("metrics":{"counters":{},"gauges":{},"histograms":{}}})");
  ASSERT_TRUE(bad_run.has_value());
  EXPECT_FALSE(ValidateBenchReport(*bad_run).empty());
}

// --- analyzer integration -------------------------------------------------

// The paper's Fig. 1 shape: unset var expansion feeding rm -rf.
constexpr char kSteamish[] =
    "STEAMROOT=\"$(cd \"${0%/*}\" && echo $PWD)\"\n"
    "rm -rf \"$STEAMROOT/\"*\n";

TEST(AnalyzerIntegration, JsonReportCarriesPhasesAndFindings) {
  EventJournal journal(1024);
  core::AnalyzerOptions options;
  options.journal = &journal;
  core::Analyzer analyzer(std::move(options));
  core::AnalysisReport report = analyzer.AnalyzeSource(kSteamish);

  std::optional<JsonValue> doc = JsonValue::Parse(report.ToJson());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->Find("schema")->string, core::kAnalysisSchema);
  EXPECT_EQ(doc->Find("parse_ok")->boolean, true);
  EXPECT_EQ(doc->Find("clean")->boolean, false);

  const JsonValue* phases = doc->Find("phases");
  ASSERT_NE(phases, nullptr);
  bool saw_parse = false;
  bool saw_symex = false;
  for (const JsonValue& p : phases->array) {
    EXPECT_GE(p.Find("micros")->number, 0);
    if (p.Find("name")->string == "parse") {
      saw_parse = true;
    }
    if (p.Find("name")->string == "symex") {
      saw_symex = true;
    }
  }
  EXPECT_TRUE(saw_parse);
  EXPECT_TRUE(saw_symex);

  bool saw_del_root = false;
  for (const JsonValue& f : doc->Find("findings")->array) {
    if (f.Find("code")->string == "SASH-DEL-ROOT") {
      saw_del_root = true;
      EXPECT_GE(f.Find("line")->number, 1);
    }
  }
  EXPECT_TRUE(saw_del_root);

  // Engine stats made it into the JSON "stats"; the report keeps the rest
  // of the run's counts, which the JSON leaves out.
  EXPECT_EQ(doc->Find("stats")->Find("engine")->Find("commands_executed")->number,
            report.stats().engine.commands_executed);
  EXPECT_GT(report.stats().engine.commands_executed, 0);
  EXPECT_EQ(report.stats().runs, 1);
  EXPECT_GT(report.stats().warnings_or_worse, 0);
  EXPECT_GE(report.stats().findings, static_cast<int>(report.findings().size()));
  EXPECT_EQ(doc->Find("metrics"), nullptr);

  // The journal saw the same phases with the report's own timings, and the
  // trace rendered from it is Chrome-loadable JSON.
  std::vector<Event> events = journal.Drain();
  ASSERT_EQ(events.size(), report.phase_timings().size());
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].kind, EventKind::kPhase);
    EXPECT_EQ(events[i].name, report.phase_timings()[i].name);
    EXPECT_EQ(events[i].a, report.phase_timings()[i].micros);
  }
  std::optional<JsonValue> trace =
      JsonValue::Parse(RenderTimeline(events, journal.dropped()).chrome_json);
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->Find("traceEvents")->array.size(), events.size());
}

TEST(AnalyzerIntegration, PhaseTimingsAlwaysPopulated) {
  core::Analyzer analyzer;  // No journal attached.
  core::AnalysisReport report = analyzer.AnalyzeSource("echo hi\n");
  ASSERT_FALSE(report.phase_timings().empty());
  EXPECT_EQ(report.phase_timings()[0].name, "parse");
  EXPECT_GE(report.total_micros(), 0);
  EXPECT_TRUE(JsonValue::Parse(report.ToJson()).has_value());
}

}  // namespace
}  // namespace sash::obs
