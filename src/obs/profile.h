// Post-processing for profile runs: the Chrome trace and flamegraph views
// of the journal's timeline, lock-site summaries into the journal, and the
// aggregation behind `sash report` (top contended sites, per-worker
// utilization, per-phase breakdown). Everything here runs after the
// workload, off the hot path.
#ifndef SASH_OBS_PROFILE_H_
#define SASH_OBS_PROFILE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/journal.h"

namespace sash::obs {

// Both views of one drained journal's timeline.
struct TimelineViews {
  // Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev): "X" spans
  // on per-thread lanes, "M" worker-N lane names, "C" counter tracks, and
  // the journal's dropped count under "otherData" so a timeline cut short
  // by wrap-around says so.
  std::string chrome_json;
  // Collapsed-stack ("flamegraph") lines, "task;parse 1234", where the
  // count is *self* microseconds (the span's duration minus its direct
  // children); identical stacks merged, sorted by stack for determinism.
  std::string folded;
};

// Renders the timeline of `events` (in emission order, as Drain returns
// them). The spans are the span and phase events, nested per thread by
// their recorded depth, plus one "task" span per pool task_start/task_stop
// pair, which roots its worker's lane and names it after task_start's
// worker index. The counter tracks are "rss_kb" from rss events and each
// counter event's name.
TimelineViews RenderTimeline(const std::vector<Event>& events, int64_t dropped);

// Emits one kLockSite summary event per registered probe site into
// `journal` (a=wait_ns, b=hold_ns, c=acquisitions, d=contended), so a
// journal file carries the end-of-run contention totals even when the
// per-wait events were dropped by ring overwrite. Null journal is a no-op.
void JournalLockSites(EventJournal* journal);

// Aggregated view of one journal, built either from in-memory events or a
// parsed sash-events-v1 JSONL document.
struct JournalSummary {
  struct Site {
    std::string name;
    int64_t wait_ns = 0;
    int64_t hold_ns = 0;
    int64_t acquisitions = 0;
    int64_t contended = 0;
  };
  struct Worker {
    int64_t worker = 0;     // Worker index within the pool.
    int64_t busy_us = 0;    // Sum of task durations.
    int64_t tasks = 0;
    int64_t steals = 0;
  };

  std::vector<Site> sites;                 // Sorted by wait_ns, descending.
  std::vector<Worker> workers;             // Sorted by worker index.
  std::map<std::string, int64_t> phase_us; // Phase name -> total microseconds.
  int64_t span_us = 0;                     // Largest event timestamp seen.
  int64_t peak_rss_kb = 0;
  int64_t lock_wait_events = 0;            // Individual kLockWait events kept.
  int64_t emitted = 0;                     // From the header, when parsed.
  int64_t dropped = 0;                     // From the header, when parsed.
};

// Aggregates in-memory events (e.g. straight from EventJournal::Drain()).
JournalSummary SummarizeEvents(const std::vector<Event>& events);

// Parses and aggregates a sash-events-v1 JSONL document. Returns nullopt on
// malformed input; if `problems` is non-null it receives the validator's
// diagnostics either way.
std::optional<JournalSummary> SummarizeJsonl(std::string_view text,
                                             std::vector<std::string>* problems = nullptr);

// Renders the human-readable report printed by `sash report`: top contended
// sites by total wait, per-worker utilization against the run's wall span,
// and the per-phase time breakdown.
std::string FormatReport(const JournalSummary& summary);

}  // namespace sash::obs

#endif  // SASH_OBS_PROFILE_H_
