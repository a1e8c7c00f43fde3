// Timed regions recorded into the event journal. A Span is an RAII region
// that, when it ends, emits one completed-span event (start, duration,
// nesting depth) on the journal's clock; the Chrome trace and the folded
// stacks are rendered from the drained journal afterwards (RenderTimeline
// in obs/profile.h), so there is one timeline with one epoch.
//
//   {
//     obs::Span span(journal, "symex");   // null journal -> one branch,
//     ...                                 // no clock read, no event
//   }
#ifndef SASH_OBS_TRACE_H_
#define SASH_OBS_TRACE_H_

#include <chrono>
#include <cstdint>

#include "obs/journal.h"

namespace sash::obs {

// The dense per-process thread id used across every export surface: journal
// events, and through them trace lanes and thread-name metadata, all draw
// from this one sequence, so a given OS thread has the same id everywhere.
uint32_t CurrentThreadId();

// RAII timed region. With a null journal every member is a no-op (the
// disarmed cost is one branch; not even the clock is read). `name` must be
// a string literal, as for EventJournal::Emit.
class Span {
 public:
  Span(EventJournal* journal, const char* name)
      : Span(journal, EventKind::kSpan, name, /*always_timed=*/false) {}
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // An analyzer phase: timed even when disarmed, because its duration is
  // also the report's phase_timings entry; armed, it ends as one kPhase
  // event with the same start and duration.
  static Span Phase(EventJournal* journal, const char* name) {
    return Span(journal, EventKind::kPhase, name, /*always_timed=*/true);
  }

  // Ends the region and returns its duration in microseconds (0 for a
  // disarmed Span); later calls, and the destructor, do nothing and return 0.
  int64_t End();

 private:
  Span(EventJournal* journal, EventKind kind, const char* name, bool always_timed);

  EventJournal* journal_;
  EventKind kind_;
  const char* name_;
  bool open_;
  int depth_ = 0;
  std::chrono::steady_clock::time_point start_{};
};

// A plain monotonic stopwatch for always-on timing that is not a journal
// region (per-file micros, budgets, bench loops).
class StopWatch {
 public:
  StopWatch() : start_(std::chrono::steady_clock::now()) {}
  int64_t ElapsedMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }
  int64_t ElapsedNanos() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace sash::obs

#endif  // SASH_OBS_TRACE_H_
