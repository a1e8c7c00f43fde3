// Post-processing for journaled runs: the Chrome trace and flamegraph views
// of the journal's timeline, and the aggregation behind `sash report
// --journal` (per-worker utilization, per-phase breakdown, run totals).
// Everything here runs after the workload, off the hot path.
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

// Aggregated view of one parsed sash-events-v1 JSONL document.
struct JournalSummary {
  struct Worker {
    int64_t worker = 0;     // Worker index within the pool.
    int64_t busy_us = 0;    // Sum of task durations.
    int64_t tasks = 0;
    int64_t steals = 0;
  };

  std::vector<Worker> workers;             // Sorted by worker index.
  std::map<std::string, int64_t> phase_us; // Phase name -> total microseconds.
  int64_t span_us = 0;                     // Largest event timestamp seen.
  int64_t peak_rss_kb = 0;
  int64_t emitted = 0;                     // From the header.
  int64_t dropped = 0;                     // From the header.
};

// Parses and aggregates a sash-events-v1 JSONL document. Returns nullopt on
// malformed input; if `problems` is non-null it receives the validator's
// diagnostics either way.
std::optional<JournalSummary> SummarizeJsonl(std::string_view text,
                                             std::vector<std::string>* problems = nullptr);

// Renders the human-readable report printed by `sash report --journal`:
// per-worker utilization against the run's wall span, the per-phase time
// breakdown, and the run's span, peak RSS and journal counts.
std::string FormatReport(const JournalSummary& summary);

}  // namespace sash::obs

#endif  // SASH_OBS_PROFILE_H_
