// A bounded, lock-free ring-buffer event journal: the process's one
// timeline. Producers (spans, analyzer phases, thread-pool workers, the RSS
// sampler) emit fixed-size events with a fetch_add and a handful of relaxed
// stores; when the buffer wraps, the oldest events are overwritten and
// counted as dropped. The journal is drained after the workload quiesces
// and flushed as JSONL under the "sash-events-v1" schema (`--journal`) or
// rendered as a Chrome trace and folded stacks (`--trace-out`, `--folded`;
// see RenderTimeline in obs/profile.h).
//
// Event names must have static storage duration (string literals): the hot
// path stores the pointer, never copies, never allocates.
//
// JSONL layout: the first line is a header object
//   {"schema":"sash-events-v1","sash":"<version>","capacity":N,
//    "emitted":N,"dropped":N}
// and every following line is one event
//   {"ev":"phase","seq":12,"ts_us":345,"tid":2,"name":"parse",
//    "a":125,"b":0,"c":0,"d":0}
// Field meanings per kind are documented at EventKind. ValidateJsonl() is
// the schema check used by tests, `sash_check_bench_json --journal`, and CI.
#ifndef SASH_OBS_JOURNAL_H_
#define SASH_OBS_JOURNAL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace sash::obs {

enum class EventKind : uint8_t {
  kTaskStart = 0,   // Pool worker picked up a task: a=worker index.
  kTaskStop,        // Task finished: a=worker index, b=task duration (us),
                    // measured from its task_start's ts_us.
  kSteal,           // a=thief worker index.
  kQueueDepth,      // a=global queued tasks (sampled on submit).
  kRss,             // a=current RSS KiB, b=peak RSS KiB.
  kPhase,           // Analyzer phase completed: name=phase, ts_us=its
                    // start, a=micros, b=nesting depth (as for kSpan).
  kCounter,         // Counter sample (the cache's "cache.hits"): name, a=value.
  kMark,            // Free-form annotation (batch start, serve drain, ...).
  kSpan,            // Completed obs::Span: name, ts_us=its start,
                    // a=duration (us), b=nesting depth among the open
                    // spans and phases of its thread.
};

// Stable wire names ("task_start", "phase", ...). Unknown kinds render
// as "?" and fail validation.
std::string_view EventKindName(EventKind kind);

struct Event {
  int64_t ts_us = 0;      // Microseconds since the journal's construction
                          // (emission time; a span's or phase's start).
  uint64_t seq = 0;       // Global emission order (monotonic, gap-free).
  uint32_t tid = 0;       // Dense per-thread id (obs::CurrentThreadId).
  EventKind kind = EventKind::kMark;
  const char* name = "";  // Static string; site/phase/counter identity.
  int64_t a = 0;
  int64_t b = 0;
  int64_t c = 0;
  int64_t d = 0;
};

class EventJournal {
 public:
  // `capacity` is rounded up to a power of two (minimum 1024).
  explicit EventJournal(size_t capacity = size_t{1} << 16);
  EventJournal(const EventJournal&) = delete;
  EventJournal& operator=(const EventJournal&) = delete;
  ~EventJournal();

  // Lock-free, wait-free emission (one fetch_add + stores). Safe from any
  // thread. `name` must outlive the journal (use string literals).
  void Emit(EventKind kind, const char* name, int64_t a = 0, int64_t b = 0, int64_t c = 0,
            int64_t d = 0) {
    EmitAt(NowMicros(), kind, name, a, b, c, d);
  }
  // Emit stamped with `ts_us` instead of now: a completed span carries its
  // start time, read from this journal's clock when the span opened.
  void EmitAt(int64_t ts_us, EventKind kind, const char* name, int64_t a = 0, int64_t b = 0,
              int64_t c = 0, int64_t d = 0);

  int64_t emitted() const { return static_cast<int64_t>(cursor_.load(std::memory_order_relaxed)); }
  int64_t dropped() const;  // Events overwritten by wrap-around.
  size_t capacity() const { return capacity_; }
  // Microseconds since the journal's construction: the one clock every
  // event, and so every exported view, is stamped with.
  int64_t NowMicros() const { return MicrosAt(std::chrono::steady_clock::now()); }
  int64_t MicrosAt(std::chrono::steady_clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::microseconds>(t - epoch_).count();
  }

  // Surviving events in emission order (oldest first). Call only after
  // producers have quiesced; concurrent emission may tear in-flight slots
  // (they are skipped via their sequence stamps).
  std::vector<Event> Drain() const;

  // JSONL serialization (header line + one line per drained event).
  std::string ToJsonl() const;

  // Validates a JSONL document against sash-events-v1. Returns human-
  // readable problems; empty when conforming.
  static std::vector<std::string> ValidateJsonl(std::string_view text);

  // The process-global journal, for emitters with no journal in reach (the
  // cache, the isolation supervisor); null = journaling off, one relaxed
  // load per emission site. Not owning.
  static void SetGlobal(EventJournal* journal) {
    global_.store(journal, std::memory_order_release);
  }
  static EventJournal* Global() { return global_.load(std::memory_order_acquire); }

 private:
  struct Slot {
    // kEmpty until first write; then the event's seq (release-published
    // after the payload so Drain can detect half-written slots).
    std::atomic<uint64_t> stamp{kEmpty};
    Event event;
  };
  static constexpr uint64_t kEmpty = ~uint64_t{0};

  size_t capacity_;  // Power of two.
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> cursor_{0};
  std::chrono::steady_clock::time_point epoch_;

  static std::atomic<EventJournal*> global_;
};

inline constexpr char kEventsSchema[] = "sash-events-v1";

}  // namespace sash::obs

#endif  // SASH_OBS_JOURNAL_H_
