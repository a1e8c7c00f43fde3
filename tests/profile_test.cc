// Tests for the self-profiling subsystem: lock probes (armed, disarmed, and
// compiled-out), the event journal and its JSONL schema, tracer counter
// tracks and thread lanes, flamegraph folding, thread-pool telemetry, the
// `sash report` aggregation, and the pay-for-use obs::Session.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <thread>

#include "obs/journal.h"
#include "obs/json.h"
#include "obs/lockprobe.h"
#include "obs/metrics.h"
#include "obs/procstat.h"
#include "obs/profile.h"
#include "obs/session.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace {

using sash::obs::Event;
using sash::obs::EventJournal;
using sash::obs::EventKind;
using sash::obs::LockProbes;
using sash::obs::LockSite;
using sash::obs::LockSiteSnapshot;
using sash::obs::TraceEvent;

// The "compiled-out probes cost zero" guarantee: with SASH_LOCK_PROBES=0,
// ProfiledMutex is PlainProfiledMutex, which must be bit-for-bit a
// std::mutex — same size, no site pointer, no hold timestamp.
static_assert(sizeof(sash::obs::PlainProfiledMutex) == sizeof(std::mutex),
              "PlainProfiledMutex must add nothing to std::mutex");
static_assert(!sash::obs::PlainProfiledMutex::kProfiled);
static_assert(sash::obs::ProfiledMutexImpl::kProfiled);

// Restores the disarmed default and clears counters around each probe test,
// so tests cannot leak arm state into each other (or into other suites).
class LockProbeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    LockProbes::Disarm();
    LockProbes::Reset();
  }
  void TearDown() override {
    LockProbes::Disarm();
    EventJournal::SetGlobal(nullptr);
  }

  static LockSiteSnapshot FindSite(const std::string& name) {
    for (const LockSiteSnapshot& s : LockProbes::Snapshot()) {
      if (s.name == name) {
        return s;
      }
    }
    return {};
  }
};

TEST_F(LockProbeTest, DisarmedMutexRecordsNothing) {
  sash::obs::ProfiledMutexImpl mu("test.disarmed");
  for (int i = 0; i < 10; ++i) {
    std::lock_guard<sash::obs::ProfiledMutexImpl> lock(mu);
  }
  LockSiteSnapshot site = FindSite("test.disarmed");
  EXPECT_EQ(site.acquisitions, 0);
  EXPECT_EQ(site.contended, 0);
  EXPECT_EQ(site.wait_ns, 0);
  EXPECT_EQ(site.hold_ns, 0);
}

TEST_F(LockProbeTest, ArmedMutexCountsAcquisitionsAndSamplesHold) {
  sash::obs::ProfiledMutexImpl mu("test.armed");
  LockProbes::Arm();
  for (int i = 0; i < 16; ++i) {
    std::lock_guard<sash::obs::ProfiledMutexImpl> lock(mu);
    // Only every 8th acquisition is hold-timed; the first after Reset() is,
    // so a little work here must show up in hold_ns.
    std::this_thread::sleep_for(std::chrono::microseconds(i < 2 ? 200 : 0));
  }
  LockSiteSnapshot site = FindSite("test.armed");
  EXPECT_EQ(site.acquisitions, 16);
  EXPECT_EQ(site.contended, 0);
  EXPECT_GT(site.hold_ns, 0);
}

TEST_F(LockProbeTest, ContendedAcquisitionRecordsWaitAndJournals) {
  EventJournal journal(1024);
  EventJournal::SetGlobal(&journal);
  sash::obs::ProfiledMutexImpl mu("test.contended");
  LockProbes::Arm();

  std::atomic<bool> held{false};
  std::thread holder([&] {
    mu.lock();
    held.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    mu.unlock();
  });
  while (!held.load()) {
    std::this_thread::yield();
  }
  mu.lock();  // Blocks until the holder releases: a contended acquisition.
  mu.unlock();
  holder.join();

  LockSiteSnapshot site = FindSite("test.contended");
  EXPECT_EQ(site.acquisitions, 2);
  EXPECT_GE(site.contended, 1);
  EXPECT_GT(site.wait_ns, 1'000'000);  // Waited most of the 5ms hold.
  EXPECT_GT(site.max_wait_ns, 0);
  EXPECT_GE(site.wait_p99_ns, site.wait_p50_ns);

  bool journaled = false;
  for (const Event& e : journal.Drain()) {
    if (e.kind == EventKind::kLockWait && std::string(e.name) == "test.contended") {
      journaled = true;
      EXPECT_GT(e.a, 0);  // The wait, in nanoseconds.
    }
  }
  EXPECT_TRUE(journaled);
}

TEST_F(LockProbeTest, ScopedWaitProbeHonorsThreshold) {
  static LockSite* site = LockProbes::Register("test.waitprobe");
  LockProbes::Arm();
  {
    sash::obs::ScopedWaitProbe probe(site);  // Threshold 0: always contended.
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  {
    // A region faster than the threshold counts only as an acquisition.
    sash::obs::ScopedWaitProbe probe(site, /*contended_threshold_ns=*/int64_t{1} << 60);
  }
  LockSiteSnapshot snap = FindSite("test.waitprobe");
  EXPECT_EQ(snap.acquisitions, 2);
  EXPECT_EQ(snap.contended, 1);
  EXPECT_GT(snap.wait_ns, 0);
}

TEST_F(LockProbeTest, SnapshotMergesSitesSharingAName) {
  // Every pool worker registers its deque lock under the same name; the
  // snapshot must present them as one logical site.
  static LockSite* a = LockProbes::Register("test.merged");
  static LockSite* b = LockProbes::Register("test.merged");
  ASSERT_NE(a, b);
  LockProbes::Arm();
  a->RecordAcquisition();
  b->RecordAcquisition();
  b->RecordWait(1000);
  int hits = 0;
  LockSiteSnapshot merged;
  for (const LockSiteSnapshot& s : LockProbes::Snapshot()) {
    if (s.name == "test.merged") {
      ++hits;
      merged = s;
    }
  }
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(merged.acquisitions, 2);
  EXPECT_EQ(merged.contended, 1);
  EXPECT_EQ(merged.wait_ns, 1000);
}

TEST(JournalTest, DrainPreservesEmissionOrder) {
  EventJournal journal(1024);
  journal.Emit(EventKind::kMark, "first", 1);
  journal.Emit(EventKind::kPhase, "parse", 42);
  journal.Emit(EventKind::kLockWait, "some.site", 125'000);
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
}

TEST(TracerTest, ChromeJsonParsesWithLanesCountersAndNames) {
  sash::obs::Tracer tracer;
  {
    sash::obs::Span outer(&tracer, "outer");
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    sash::obs::Span inner(&tracer, "inner");
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  tracer.RecordCounter("rss_kb", tracer.NowMicros(), 12345);
  tracer.SetThreadName(sash::obs::CurrentThreadId(), "main-thread");

  std::vector<TraceEvent> events = tracer.Events();
  ASSERT_EQ(events.size(), 2u);
  // Spans nest: same thread, the inner one deeper and contained in time.
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_EQ(events[0].tid, events[1].tid);
  EXPECT_EQ(events[0].depth, 0);
  EXPECT_EQ(events[1].depth, 1);
  EXPECT_GE(events[1].start_us, events[0].start_us);
  EXPECT_LE(events[1].start_us + events[1].duration_us,
            events[0].start_us + events[0].duration_us);

  std::optional<sash::obs::JsonValue> doc = sash::obs::JsonValue::Parse(tracer.ToChromeJson());
  ASSERT_TRUE(doc.has_value());
  const sash::obs::JsonValue* trace_events = doc->Find("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  bool saw_span = false;
  bool saw_counter = false;
  bool saw_name = false;
  for (const sash::obs::JsonValue& e : trace_events->array) {
    const sash::obs::JsonValue* ph = e.Find("ph");
    ASSERT_NE(ph, nullptr);
    saw_span = saw_span || ph->string == "X";
    saw_counter = saw_counter || ph->string == "C";
    saw_name = saw_name || ph->string == "M";
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_name);
}

TEST(TracerTest, ThreadIdsAreStablePerThreadAndDistinctAcrossThreads) {
  uint32_t main_a = sash::obs::CurrentThreadId();
  uint32_t main_b = sash::obs::CurrentThreadId();
  EXPECT_EQ(main_a, main_b);
  uint32_t other = main_a;
  std::thread t([&] { other = sash::obs::CurrentThreadId(); });
  t.join();
  EXPECT_NE(other, main_a);
}

TEST(CollapsedStacksTest, SelfTimeExcludesDirectChildren) {
  std::vector<TraceEvent> events;
  events.push_back({"task", 0, 100, /*tid=*/1, /*depth=*/0});
  events.push_back({"parse", 10, 30, 1, 1});
  events.push_back({"symex", 50, 20, 1, 1});
  std::string folded = sash::obs::CollapsedStacks(events);
  // task self = 100 - 30 - 20 = 50; children keep their own durations.
  EXPECT_NE(folded.find("task 50"), std::string::npos) << folded;
  EXPECT_NE(folded.find("task;parse 30"), std::string::npos) << folded;
  EXPECT_NE(folded.find("task;symex 20"), std::string::npos) << folded;
}

TEST(CollapsedStacksTest, MergesIdenticalStacksAcrossRepeats) {
  std::vector<TraceEvent> events;
  events.push_back({"task", 0, 40, 1, 0});
  events.push_back({"task", 100, 60, 1, 0});
  std::string folded = sash::obs::CollapsedStacks(events);
  EXPECT_NE(folded.find("task 100"), std::string::npos) << folded;
}

TEST(PoolTelemetryTest, WorkersEmitTaskAndQueueEvents) {
  sash::obs::Tracer tracer;
  sash::obs::Registry registry;
  EventJournal journal(1 << 12);
  sash::obs::Hooks hooks{&tracer, &registry, &journal};
  {
    sash::util::ThreadPool pool(2, hooks);
    for (int i = 0; i < 8; ++i) {
      pool.Submit([] { std::this_thread::sleep_for(std::chrono::microseconds(100)); });
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
  // Every task ran under a span on a named worker lane.
  int task_spans = 0;
  for (const TraceEvent& e : tracer.Events()) {
    task_spans += e.name == "task" ? 1 : 0;
  }
  EXPECT_EQ(task_spans, 8);
}

TEST(ReportTest, SummarizeRanksSitesAndComputesUtilization) {
  EventJournal journal(1024);
  journal.Emit(EventKind::kLockSite, "intern.table", 5'000'000, 1'000, 400, 12);
  journal.Emit(EventKind::kLockSite, "pool.worker", 9'000'000, 2'000, 100, 30);
  journal.Emit(EventKind::kTaskStop, "pool.task", 0, 700);
  journal.Emit(EventKind::kTaskStop, "pool.task", 1, 300);
  journal.Emit(EventKind::kPhase, "parse", 250);
  journal.Emit(EventKind::kPhase, "symex", 750);
  journal.Emit(EventKind::kRss, "process.rss_kb", 11'000, 13'000);

  sash::obs::JournalSummary summary = sash::obs::SummarizeEvents(journal.Drain());
  ASSERT_EQ(summary.sites.size(), 2u);
  EXPECT_EQ(summary.sites[0].name, "pool.worker");  // Most wait first.
  EXPECT_EQ(summary.sites[0].wait_ns, 9'000'000);
  EXPECT_EQ(summary.sites[1].acquisitions, 400);
  ASSERT_EQ(summary.workers.size(), 2u);
  EXPECT_EQ(summary.workers[0].busy_us, 700);
  EXPECT_EQ(summary.phase_us.at("symex"), 750);
  EXPECT_EQ(summary.peak_rss_kb, 13'000);

  std::string report = sash::obs::FormatReport(summary);
  // The top contended site leads the contention section.
  EXPECT_LT(report.find("pool.worker"), report.find("intern.table")) << report;
  EXPECT_NE(report.find("parse"), std::string::npos);
}

TEST(ReportTest, JsonlSummaryMatchesInMemorySummary) {
  EventJournal journal(1024);
  journal.Emit(EventKind::kLockSite, "regex.pattern_cache", 2'000'000, 500, 77, 3);
  journal.Emit(EventKind::kTaskStop, "pool.task", 0, 123);
  journal.Emit(EventKind::kPhase, "stream-typing", 42);

  sash::obs::JournalSummary direct = sash::obs::SummarizeEvents(journal.Drain());
  std::optional<sash::obs::JournalSummary> parsed = sash::obs::SummarizeJsonl(journal.ToJsonl());
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->sites.size(), direct.sites.size());
  EXPECT_EQ(parsed->sites[0].name, direct.sites[0].name);
  EXPECT_EQ(parsed->sites[0].wait_ns, direct.sites[0].wait_ns);
  EXPECT_EQ(parsed->workers.size(), direct.workers.size());
  EXPECT_EQ(parsed->phase_us, direct.phase_us);
  EXPECT_EQ(parsed->emitted, 3);
  EXPECT_EQ(parsed->dropped, 0);
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

TEST(ProcStatTest, SamplerPopulatesGaugeAndJournal) {
  sash::obs::Tracer tracer;
  sash::obs::Registry registry;
  EventJournal journal(1024);
  sash::obs::Hooks hooks{&tracer, &registry, &journal};
  {
    sash::obs::RssSampler sampler(hooks, /*period_ms=*/5);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  EXPECT_GT(registry.gauge("process.rss_kb")->value(), 0);
  EXPECT_GT(registry.gauge("process.peak_rss_kb")->value(), 0);
  bool saw_rss = false;
  for (const Event& e : journal.Drain()) {
    saw_rss = saw_rss || e.kind == EventKind::kRss;
  }
  EXPECT_TRUE(saw_rss);
}

// The pay-for-use contract of obs::Session: a run that records nothing
// builds no sink, installs no global journal and arms nothing.
TEST(SessionTest, NothingRequestedBuildsNothing) {
  LockProbes::Disarm();
  EventJournal::SetGlobal(nullptr);
  sash::obs::Session session({});
  EXPECT_EQ(session.tracer(), nullptr);
  EXPECT_EQ(session.metrics(), nullptr);
  EXPECT_EQ(session.journal(), nullptr);
  sash::obs::Hooks hooks = session.hooks();
  EXPECT_EQ(hooks.tracer, nullptr);
  EXPECT_EQ(hooks.metrics, nullptr);
  EXPECT_EQ(hooks.journal, nullptr);
  EXPECT_EQ(EventJournal::Global(), nullptr);
  EXPECT_FALSE(LockProbes::armed());
  EXPECT_TRUE(session.Finish("test"));  // Nothing to write.
}

TEST(SessionTest, JournalIsGlobalForTheSessionAndWrittenAtFinish) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / ("sash_session_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  std::string journal_out = (dir / "events.jsonl").string();
  std::string trace_out = (dir / "trace.json").string();
  {
    sash::obs::Session session(
        {.trace_out = trace_out, .journal_out = journal_out, .arm_lock_probes = true});
    ASSERT_NE(session.journal(), nullptr);
    ASSERT_NE(session.tracer(), nullptr);
    EXPECT_EQ(session.metrics(), nullptr);
    EXPECT_EQ(EventJournal::Global(), session.journal());
    EXPECT_TRUE(LockProbes::armed());
    { sash::obs::Span span(session.tracer(), "work"); }
    EXPECT_TRUE(session.Finish("test"));
    EXPECT_FALSE(LockProbes::armed());
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
  fs::remove_all(dir);
}

TEST(SessionTest, UnwritableArtifactFailsFinishAndDestructionDisarms) {
  {
    sash::obs::Session session(
        {.journal_out = "/nonexistent-sash-dir/events.jsonl", .arm_lock_probes = true});
    EXPECT_FALSE(session.Finish("test"));
  }
  {
    sash::obs::Session session({.arm_lock_probes = true});
    EXPECT_TRUE(LockProbes::armed());
  }
  EXPECT_FALSE(LockProbes::armed());
}

}  // namespace
