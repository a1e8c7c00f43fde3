// Tests for the self-profiling subsystem: the event journal and its JSONL
// schema, the Chrome trace and folded stacks rendered from it (counter
// tracks, worker lanes, self time), thread-pool telemetry, the `sash report`
// aggregation, the pay-for-use obs::Session, and the allocation-free
// disarmed path.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "obs/journal.h"
#include "obs/json.h"
#include "obs/procstat.h"
#include "obs/profile.h"
#include "obs/session.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace {

// Counts the process's heap allocations while armed, for the disarmed-path
// contract below. Every replaced new has its matching delete replaced too,
// so sanitizer runtimes see consistent pairs.
std::atomic<bool> g_count_allocations{false};
std::atomic<int64_t> g_allocations{0};

void* CountedAlloc(std::size_t size, std::size_t align = 0) noexcept {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  size = size == 0 ? 1 : size;
  if (align == 0) {
    return std::malloc(size);
  }
  return std::aligned_alloc(align, (size + align - 1) / align * align);
}

void* CountedAllocOrThrow(std::size_t size, std::size_t align = 0) {
  if (void* p = CountedAlloc(size, align)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

// All out of line, so the compiler never pairs an inlined malloc() or
// free() with a new- or delete-expression (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) { return CountedAllocOrThrow(size); }
[[gnu::noinline]] void* operator new[](std::size_t size) { return CountedAllocOrThrow(size); }
[[gnu::noinline]] void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
[[gnu::noinline]] void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
[[gnu::noinline]] void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAllocOrThrow(size, static_cast<std::size_t>(align));
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using sash::obs::Event;
using sash::obs::EventJournal;
using sash::obs::EventKind;
using sash::obs::JsonValue;
using sash::obs::Span;

TEST(JournalTest, DrainPreservesEmissionOrder) {
  EventJournal journal(1024);
  journal.Emit(EventKind::kMark, "first", 1);
  journal.Emit(EventKind::kPhase, "parse", 42);
  journal.Emit(EventKind::kSpan, "work", 125);
  std::vector<Event> events = journal.Drain();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[2].seq, 2u);
  EXPECT_STREQ(events[1].name, "parse");
  EXPECT_EQ(events[1].a, 42);
  EXPECT_LE(events[0].ts_us, events[2].ts_us);
}

TEST(JournalTest, WrapAroundKeepsNewestAndCountsDropped) {
  EventJournal journal(16);  // Rounded up to the 1024 minimum.
  ASSERT_EQ(journal.capacity(), 1024u);
  for (int i = 0; i < 1500; ++i) {
    journal.Emit(EventKind::kCounter, "tick", i);
  }
  EXPECT_EQ(journal.emitted(), 1500);
  EXPECT_EQ(journal.dropped(), 1500 - 1024);
  std::vector<Event> events = journal.Drain();
  ASSERT_EQ(events.size(), 1024u);
  // The survivors are exactly the newest events, still in order.
  EXPECT_EQ(events.front().a, 1500 - 1024);
  EXPECT_EQ(events.back().a, 1499);
}

TEST(JournalTest, JsonlRoundTripsValidator) {
  EventJournal journal(1024);
  journal.Emit(EventKind::kMark, "batch.start", 8);
  journal.Emit(EventKind::kTaskStart, "pool.task", 0, 3);
  journal.Emit(EventKind::kTaskStop, "pool.task", 0, 512);
  journal.Emit(EventKind::kRss, "process.rss_kb", 10'000, 12'000);
  std::string jsonl = journal.ToJsonl();
  EXPECT_TRUE(EventJournal::ValidateJsonl(jsonl).empty())
      << EventJournal::ValidateJsonl(jsonl).front();
}

TEST(JournalTest, ValidatorRejectsCorruptDocuments) {
  // Wrong schema tag.
  EXPECT_FALSE(EventJournal::ValidateJsonl(R"({"schema":"sash-bench-v1"})").empty());
  // Header fine, event line is not an object.
  EventJournal journal(1024);
  journal.Emit(EventKind::kMark, "x");
  std::string jsonl = journal.ToJsonl();
  EXPECT_FALSE(EventJournal::ValidateJsonl(jsonl + "[]\n").empty());
  // Unknown event kind.
  std::string bogus = jsonl +
                      R"({"ev":"time_travel","seq":9,"ts_us":1,"tid":0,"name":"x",)"
                      R"("a":0,"b":0,"c":0,"d":0})"
                      "\n";
  EXPECT_FALSE(EventJournal::ValidateJsonl(bogus).empty());
  // A retired kind is now unknown too.
  std::string retired = jsonl +
                        R"({"ev":"lock_wait","seq":9,"ts_us":1,"tid":0,"name":"intern.table",)"
                        R"("a":125000,"b":0,"c":0,"d":0})"
                        "\n";
  EXPECT_FALSE(EventJournal::ValidateJsonl(retired).empty());
}

// A hand-built journal event, for rendering tests that need exact times.
Event At(EventKind kind, const char* name, int64_t ts_us, uint32_t tid, int64_t a,
         int64_t b = 0) {
  Event e;
  e.kind = kind;
  e.name = name;
  e.ts_us = ts_us;
  e.tid = tid;
  e.a = a;
  e.b = b;
  return e;
}

JsonValue RenderChrome(const EventJournal& journal) {
  std::optional<JsonValue> doc = JsonValue::Parse(
      sash::obs::RenderTimeline(journal.Drain(), journal.dropped()).chrome_json);
  EXPECT_TRUE(doc.has_value());
  return doc.value_or(JsonValue{});
}

TEST(TimelineTest, ChromeJsonParsesWithLanesCountersAndNames) {
  EventJournal journal(1024);
  {
    Span outer(&journal, "outer");
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    Span inner(&journal, "inner");
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  journal.Emit(EventKind::kRss, "process.rss_kb", 12345);
  journal.Emit(EventKind::kCounter, "cache.hits", 7);
  // A worker lane: one task, with a span inside, on another thread.
  uint32_t worker_tid = 0;
  std::thread worker([&] {
    worker_tid = sash::obs::CurrentThreadId();
    const int64_t start = journal.NowMicros();
    journal.EmitAt(start, EventKind::kTaskStart, "pool.task", 3);
    { Span span(&journal, "in-task"); }
    journal.Emit(EventKind::kTaskStop, "pool.task", 3, journal.NowMicros() - start);
  });
  worker.join();

  JsonValue doc = RenderChrome(journal);
  const JsonValue* trace_events = doc.Find("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  std::map<std::string, const JsonValue*> spans;
  std::map<std::string, int64_t> counters;
  std::map<int64_t, std::string> lane_names;
  for (const JsonValue& e : trace_events->array) {
    const std::string& ph = e.Find("ph")->string;
    if (ph == "X") {
      spans[e.Find("name")->string] = &e;
    } else if (ph == "C") {
      counters[e.Find("name")->string] = static_cast<int64_t>(e.Find("args")->Find("value")->number);
    } else if (ph == "M") {
      lane_names[static_cast<int64_t>(e.Find("tid")->number)] =
          e.Find("args")->Find("name")->string;
    }
  }
  ASSERT_EQ(spans.size(), 4u);
  auto num = [&spans](const char* span, const char* key) {
    return spans.at(span)->Find(key)->number;
  };
  auto depth = [&spans](const char* span) {
    return spans.at(span)->Find("args")->Find("depth")->number;
  };
  // Spans nest: same thread, the inner one deeper and contained in time.
  EXPECT_EQ(num("outer", "tid"), num("inner", "tid"));
  EXPECT_EQ(depth("outer"), 0);
  EXPECT_EQ(depth("inner"), 1);
  EXPECT_GE(num("inner", "ts"), num("outer", "ts"));
  EXPECT_LE(num("inner", "ts") + num("inner", "dur"), num("outer", "ts") + num("outer", "dur") + 1);
  // The task roots its worker's lane, named from task_start's worker index.
  EXPECT_EQ(num("task", "tid"), worker_tid);
  EXPECT_EQ(depth("task"), 0);
  EXPECT_EQ(num("in-task", "tid"), worker_tid);
  EXPECT_EQ(depth("in-task"), 1);
  EXPECT_EQ(lane_names.size(), 1u);
  EXPECT_EQ(lane_names[worker_tid], "worker-3");
  // Counter tracks: rss events as "rss_kb", counter events by name.
  EXPECT_EQ(counters["rss_kb"], 12345);
  EXPECT_EQ(counters["cache.hits"], 7);
  EXPECT_EQ(doc.Find("otherData")->Find("dropped")->number, 0);
}

TEST(TimelineTest, WrappedJournalReportsDroppedEventsInTheTrace) {
  EventJournal journal(1024);
  for (int i = 0; i < 1500; ++i) {
    Span span(&journal, "tick");
  }
  JsonValue doc = RenderChrome(journal);
  EXPECT_EQ(doc.Find("traceEvents")->array.size(), 1024u);
  EXPECT_EQ(doc.Find("otherData")->Find("dropped")->number, 1500 - 1024);
}

TEST(TimelineTest, ThreadIdsAreStablePerThreadAndDistinctAcrossThreads) {
  uint32_t main_a = sash::obs::CurrentThreadId();
  uint32_t main_b = sash::obs::CurrentThreadId();
  EXPECT_EQ(main_a, main_b);
  uint32_t other = main_a;
  std::thread t([&] { other = sash::obs::CurrentThreadId(); });
  t.join();
  EXPECT_NE(other, main_a);
}

TEST(CollapsedStacksTest, SelfTimeExcludesDirectChildren) {
  // A task on worker lane 1; its phases record depth 0 from inside it.
  std::vector<Event> events;
  events.push_back(At(EventKind::kTaskStart, "pool.task", 0, /*tid=*/1, /*worker=*/0));
  events.push_back(At(EventKind::kPhase, "parse", 10, 1, /*micros=*/30, /*depth=*/0));
  events.push_back(At(EventKind::kPhase, "symex", 50, 1, 20, 0));
  events.push_back(At(EventKind::kTaskStop, "pool.task", 100, 1, 0, /*micros=*/100));
  std::string folded = sash::obs::RenderTimeline(events, 0).folded;
  // task self = 100 - 30 - 20 = 50; children keep their own durations.
  EXPECT_NE(folded.find("task 50\n"), std::string::npos) << folded;
  EXPECT_NE(folded.find("task;parse 30\n"), std::string::npos) << folded;
  EXPECT_NE(folded.find("task;symex 20\n"), std::string::npos) << folded;
}

TEST(CollapsedStacksTest, MergesIdenticalStacksAcrossRepeats) {
  std::vector<Event> events;
  events.push_back(At(EventKind::kTaskStart, "pool.task", 0, 1, 0));
  events.push_back(At(EventKind::kTaskStop, "pool.task", 40, 1, 0, 40));
  events.push_back(At(EventKind::kTaskStart, "pool.task", 100, 1, 0));
  events.push_back(At(EventKind::kTaskStop, "pool.task", 160, 1, 0, 60));
  EXPECT_EQ(sash::obs::RenderTimeline(events, 0).folded, "task 100\n");
}

TEST(CollapsedStacksTest, SameMicrosecondSiblingsStaySiblings) {
  // Two zero-length phases inside one span, all in the same microsecond:
  // depth, not timing, decides the nesting.
  std::vector<Event> events;
  events.push_back(At(EventKind::kPhase, "parse", 5, 0, 0, /*depth=*/1));
  events.push_back(At(EventKind::kPhase, "annotations", 5, 0, 0, 1));
  events.push_back(At(EventKind::kSpan, "analyze", 5, 0, 0, 0));
  EXPECT_EQ(sash::obs::RenderTimeline(events, 0).folded,
            "analyze 0\nanalyze;annotations 0\nanalyze;parse 0\n");
}

TEST(PoolTelemetryTest, WorkersEmitTaskAndQueueEvents) {
  EventJournal journal(1 << 12);
  {
    sash::util::ThreadPool pool(2, &journal);
    for (int i = 0; i < 8; ++i) {
      pool.Submit([&journal] {
        Span span(&journal, "work");
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      });
    }
    pool.Wait();
  }
  int starts = 0;
  int stops = 0;
  int queue_samples = 0;
  for (const Event& e : journal.Drain()) {
    switch (e.kind) {
      case EventKind::kTaskStart:
        ++starts;
        EXPECT_GE(e.a, 0);
        EXPECT_LT(e.a, 2);  // Worker index.
        break;
      case EventKind::kTaskStop:
        ++stops;
        EXPECT_GE(e.b, 0);  // Duration in microseconds.
        break;
      case EventKind::kQueueDepth:
        ++queue_samples;
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(starts, 8);
  EXPECT_EQ(stops, 8);
  EXPECT_GT(queue_samples, 0);
  // Every task is a span on a named worker lane.
  JsonValue doc = RenderChrome(journal);
  std::map<int64_t, std::string> lane_names;
  for (const JsonValue& e : doc.Find("traceEvents")->array) {
    if (e.Find("ph")->string == "M") {
      lane_names[static_cast<int64_t>(e.Find("tid")->number)] =
          e.Find("args")->Find("name")->string;
    }
  }
  int task_spans = 0;
  for (const JsonValue& e : doc.Find("traceEvents")->array) {
    if (e.Find("ph")->string == "X" && e.Find("name")->string == "task") {
      ++task_spans;
      const std::string& lane = lane_names[static_cast<int64_t>(e.Find("tid")->number)];
      EXPECT_TRUE(lane == "worker-0" || lane == "worker-1") << lane;
    }
  }
  EXPECT_EQ(task_spans, 8);
  // Each task's span nests under it on its lane.
  std::string folded = sash::obs::RenderTimeline(journal.Drain(), journal.dropped()).folded;
  EXPECT_NE(folded.find("task;work "), std::string::npos) << folded;
  EXPECT_EQ(folded.find("\nwork "), std::string::npos) << folded;
}

TEST(ReportTest, SummarizeComputesWorkersPhasesAndRun) {
  EventJournal journal(1024);
  journal.Emit(EventKind::kTaskStart, "pool.task", 1);
  journal.Emit(EventKind::kTaskStop, "pool.task", 1, 300);
  journal.Emit(EventKind::kTaskStop, "pool.task", 0, 700);
  journal.Emit(EventKind::kSteal, "pool.steal", 1);
  journal.Emit(EventKind::kPhase, "parse", 250);
  journal.Emit(EventKind::kPhase, "symex", 750);
  journal.Emit(EventKind::kRss, "process.rss_kb", 11'000, 13'000);

  std::optional<sash::obs::JournalSummary> summary = sash::obs::SummarizeJsonl(journal.ToJsonl());
  ASSERT_TRUE(summary.has_value());
  ASSERT_EQ(summary->workers.size(), 2u);  // Sorted by worker index.
  EXPECT_EQ(summary->workers[0].worker, 0);
  EXPECT_EQ(summary->workers[0].busy_us, 700);
  EXPECT_EQ(summary->workers[1].tasks, 1);
  EXPECT_EQ(summary->workers[1].steals, 1);
  EXPECT_EQ(summary->phase_us.at("parse"), 250);
  EXPECT_EQ(summary->phase_us.at("symex"), 750);
  EXPECT_EQ(summary->peak_rss_kb, 13'000);
  EXPECT_EQ(summary->emitted, 7);
  EXPECT_EQ(summary->dropped, 0);

  std::string report = sash::obs::FormatReport(*summary);
  EXPECT_LT(report.find("== workers =="), report.find("== phases =="));
  EXPECT_LT(report.find("== phases =="), report.find("== run =="));
  EXPECT_NE(report.find("  worker 1:"), std::string::npos) << report;
  EXPECT_NE(report.find("symex"), std::string::npos) << report;
  EXPECT_NE(report.find("peak rss: 13000 kB"), std::string::npos) << report;
  EXPECT_NE(report.find("7 events emitted, 0 dropped"), std::string::npos) << report;
}

TEST(ReportTest, SummarizeJsonlRejectsGarbage) {
  std::vector<std::string> problems;
  EXPECT_FALSE(sash::obs::SummarizeJsonl("not json at all", &problems).has_value());
  EXPECT_FALSE(problems.empty());
}

TEST(ProcStatTest, RssReadsArePositiveAndOrdered) {
  int64_t current = sash::obs::CurrentRssKb();
  int64_t peak = sash::obs::PeakRssKb();
  EXPECT_GT(current, 0);
  EXPECT_GE(peak, current);
}

TEST(ProcStatTest, SamplerJournalsRss) {
  EventJournal journal(1024);
  {
    sash::obs::RssSampler sampler(&journal, /*period_ms=*/5);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  int samples = 0;
  for (const Event& e : journal.Drain()) {
    if (e.kind == EventKind::kRss) {
      ++samples;
      EXPECT_GT(e.a, 0);
    }
  }
  EXPECT_GE(samples, 2);  // At least the construction and destruction endpoints.
}

// The pay-for-use contract of obs::Session: a run that records nothing
// builds no sink and installs no global journal.
TEST(SessionTest, NothingRequestedBuildsNothing) {
  EventJournal::SetGlobal(nullptr);
  sash::obs::Session session({});
  EXPECT_EQ(session.journal(), nullptr);
  EXPECT_EQ(EventJournal::Global(), nullptr);
  EXPECT_TRUE(session.Finish("test"));  // Nothing to write.
}

TEST(SessionTest, JournalIsGlobalForTheSessionAndWrittenAtFinish) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / ("sash_session_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  std::string journal_out = (dir / "events.jsonl").string();
  std::string trace_out = (dir / "trace.json").string();
  std::string folded_out = (dir / "profile.folded").string();
  {
    sash::obs::Session session(
        {.trace_out = trace_out, .journal_out = journal_out, .folded_out = folded_out});
    ASSERT_NE(session.journal(), nullptr);
    EXPECT_EQ(EventJournal::Global(), session.journal());
    { Span span(session.journal(), "work"); }
    EXPECT_TRUE(session.Finish("test"));
    EXPECT_EQ(EventJournal::Global(), session.journal());  // Until destruction.
  }
  EXPECT_EQ(EventJournal::Global(), nullptr);

  std::ifstream journal_in(journal_out);
  std::string jsonl((std::istreambuf_iterator<char>(journal_in)), std::istreambuf_iterator<char>());
  ASSERT_FALSE(jsonl.empty());
  EXPECT_TRUE(EventJournal::ValidateJsonl(jsonl).empty());
  std::ifstream trace_in(trace_out);
  std::string trace((std::istreambuf_iterator<char>(trace_in)), std::istreambuf_iterator<char>());
  EXPECT_NE(trace.find("\"work\""), std::string::npos);
  std::ifstream folded_in(folded_out);
  std::string folded((std::istreambuf_iterator<char>(folded_in)), std::istreambuf_iterator<char>());
  EXPECT_EQ(folded.rfind("work ", 0), 0u) << folded;
  fs::remove_all(dir);
}

// --trace-out alone still builds the one journal (the trace is a view of
// it) but writes no JSONL.
TEST(SessionTest, TraceOutOnlyBuildsJournalButWritesNoJsonl) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / ("sash_session_trace_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::string trace_out = (dir / "trace.json").string();
  {
    sash::obs::Session session({.trace_out = trace_out});
    ASSERT_NE(session.journal(), nullptr);
    EXPECT_EQ(EventJournal::Global(), session.journal());
    { Span span(session.journal(), "work"); }
    EXPECT_TRUE(session.Finish("test"));
  }
  std::vector<std::string> written;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    written.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(written, std::vector<std::string>{"trace.json"});
  std::ifstream trace_in(trace_out);
  std::string trace((std::istreambuf_iterator<char>(trace_in)), std::istreambuf_iterator<char>());
  EXPECT_NE(trace.find("\"work\""), std::string::npos);
  fs::remove_all(dir);
}

// --folded alone builds the journal too; any unwritable artifact fails
// Finish.
TEST(SessionTest, UnwritableArtifactFailsFinish) {
  {
    sash::obs::Session session({.journal_out = "/nonexistent-sash-dir/events.jsonl"});
    EXPECT_FALSE(session.Finish("test"));
  }
  {
    sash::obs::Session session({.folded_out = "/nonexistent-sash-dir/profile.folded"});
    ASSERT_NE(session.journal(), nullptr);
    EXPECT_EQ(EventJournal::Global(), session.journal());
    EXPECT_FALSE(session.Finish("test"));
  }
  EXPECT_EQ(EventJournal::Global(), nullptr);
}

// The disarmed path allocates nothing: with default (null) hooks, spans,
// phases and pool tasks run without touching the heap. The pool's queued
// tasks are submitted (which allocates) before the counting window opens,
// and held back by a gate task until it is open.
TEST(DisarmedPathTest, SpansAndPoolTasksAllocateNothing) {
  constexpr int kSpans = 1000;
  constexpr int kTasks = 64;
  sash::util::ThreadPool pool(1);
  std::atomic<bool> open{false};
  std::atomic<int> ran{0};
  pool.Submit([&open] {
    while (!open.load()) {
      std::this_thread::yield();
    }
  });
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&ran] { ran.fetch_add(1); });
  }
  g_allocations.store(0);
  g_count_allocations.store(true);
  for (int i = 0; i < kSpans; ++i) {
    Span span(nullptr, "disarmed");
    Span phase = Span::Phase(nullptr, "parse");
  }
  open.store(true);
  pool.Wait();
  g_count_allocations.store(false);
  EXPECT_EQ(ran.load(), kTasks);
  EXPECT_EQ(g_allocations.load(), 0);

  // The counter is live: a heap allocation inside the window is seen.
  g_count_allocations.store(true);
  void* p = ::operator new(16);
  g_count_allocations.store(false);
  ::operator delete(p);
  EXPECT_EQ(g_allocations.load(), 1);
}

}  // namespace
