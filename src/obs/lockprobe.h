// Contention-aware lock instrumentation. Every hot shared structure in the
// pipeline (string interner, pattern cache, thread-pool queues, the metrics
// registry itself) guards itself with a ProfiledMutex or wraps its blocking
// region in a ScopedWaitProbe; each probe is tied to a named
// LockSite in a process-wide registry that accumulates acquisition counts,
// contended-wait totals, wait-time histograms, and hold times.
//
// Cost model, two runtime tiers:
//   - disarmed (the default): one relaxed atomic load and branch per
//     lock/unlock, no clock reads;
//   - armed (LockProbes::Arm(), used by `sash profile` and bench_contention):
//     one relaxed fetch_add per acquisition; hold timing is sampled 1-in-8
//     (two clock reads on sampled acquisitions, recorded scaled), so the
//     uncontended armed path is mostly clock-free. The contended path always
//     measures its wait in full and emits an event-journal record —
//     contention is the signal, so it is never sampled away.
//
// Sites register with string literals (static storage duration) so the
// armed hot path never allocates and the journal can carry the name pointer.
#ifndef SASH_OBS_LOCKPROBE_H_
#define SASH_OBS_LOCKPROBE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace sash::obs {

// Accumulated statistics for one probe site. All fields are relaxed atomics:
// the numbers are telemetry, and per-field tearing across a snapshot is
// acceptable (snapshots are taken when the workload is quiescent anyway).
struct LockSite {
  static constexpr int kWaitBuckets = 48;  // log2 ns buckets, like Histogram.
  // Hold timing is sampled one acquisition in 2^kHoldSampleShift; sampled
  // durations are recorded scaled so hold_ns stays an estimate of the total.
  // The first acquisition after a Reset() is always sampled, which keeps
  // single-threaded tests deterministic.
  static constexpr int kHoldSampleShift = 3;
  static constexpr int64_t kHoldSampleMask = (int64_t{1} << kHoldSampleShift) - 1;

  const char* name;  // Static string; identity for journal/report output.
  std::atomic<int64_t> acquisitions{0};  // Total lock()/probe entries.
  std::atomic<int64_t> contended{0};     // Entries that had to wait.
  std::atomic<int64_t> wait_ns{0};       // Total nanoseconds spent waiting.
  std::atomic<int64_t> hold_ns{0};       // Estimated ns held (sampled, scaled).
  std::atomic<int64_t> max_wait_ns{0};
  std::atomic<int64_t> wait_buckets[kWaitBuckets] = {};

  explicit LockSite(const char* site_name) : name(site_name) {}

  void RecordWait(int64_t ns);  // Contended acquisition: wait accounting.
  void RecordHold(int64_t ns) {
    hold_ns.fetch_add(ns << kHoldSampleShift, std::memory_order_relaxed);
  }
  // Counts the acquisition; true when this one's hold time should be timed.
  bool RecordAcquisition() {
    return (acquisitions.fetch_add(1, std::memory_order_relaxed) & kHoldSampleMask) == 0;
  }
};

// Point-in-time copy of one site's stats, with wait-time percentiles
// estimated from the log2 buckets.
struct LockSiteSnapshot {
  std::string name;
  int64_t acquisitions = 0;
  int64_t contended = 0;
  int64_t wait_ns = 0;
  int64_t hold_ns = 0;
  int64_t max_wait_ns = 0;
  int64_t wait_p50_ns = 0;  // Upper bound of the bucket holding p50.
  int64_t wait_p99_ns = 0;
};

// The process-wide probe registry and the runtime arm switch. Sites are
// registered once (typically from a function-local static) and live forever.
class LockProbes {
 public:
  // Runtime switch. Disarmed probes cost one relaxed load per operation.
  static void Arm() { armed_.store(true, std::memory_order_relaxed); }
  static void Disarm() { armed_.store(false, std::memory_order_relaxed); }
  static bool armed() { return armed_.load(std::memory_order_relaxed); }

  // Registers (or re-finds, by pointer identity of `name`'s characters
  // being irrelevant — every call registers a new site; callers hold the
  // returned pointer in a static) a site. Thread-safe; never deallocated.
  static LockSite* Register(const char* name);

  // Snapshot of every registered site, sorted by total wait descending.
  static std::vector<LockSiteSnapshot> Snapshot();

  // Zeroes every site's counters (A/B benching across arm states).
  static void Reset();

  static int64_t NowNanos() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  static std::atomic<bool> armed_;
};

// RAII probe for a blocking region that is not a mutex (cache file I/O, a
// magic-static initialization): the whole region duration is recorded as
// wait time on the site, and the entry counts as contended when it exceeds
// `contended_threshold_ns`. No-op while disarmed.
class ScopedWaitProbe {
 public:
  explicit ScopedWaitProbe(LockSite* site, int64_t contended_threshold_ns = 0)
      : site_(LockProbes::armed() ? site : nullptr),
        threshold_ns_(contended_threshold_ns) {
    if (site_ != nullptr) {
      start_ns_ = LockProbes::NowNanos();
    }
  }
  ~ScopedWaitProbe();
  ScopedWaitProbe(const ScopedWaitProbe&) = delete;
  ScopedWaitProbe& operator=(const ScopedWaitProbe&) = delete;

 private:
  LockSite* site_;
  int64_t threshold_ns_;
  int64_t start_ns_ = 0;
};

// A std::mutex with per-site contention accounting. Satisfies Lockable, so
// std::lock_guard / std::unique_lock / std::condition_variable_any work
// unchanged. The uncontended armed path is try_lock + one fetch_add (plus
// two clock reads on the 1-in-8 hold-sampled acquisitions); the contended
// path always times its wait and emits a journal event.
class ProfiledMutex {
 public:
  explicit ProfiledMutex(const char* site_name)
      : site_(LockProbes::Register(site_name)) {}
  ProfiledMutex(const ProfiledMutex&) = delete;
  ProfiledMutex& operator=(const ProfiledMutex&) = delete;

  void lock();
  bool try_lock();
  void unlock();

  LockSite* site() const { return site_; }

 private:
  void LockContended();

  std::mutex mu_;
  LockSite* site_;
  // Timestamp of the armed acquisition currently holding the mutex; 0 when
  // the holder acquired while disarmed. Written only by the holder, so a
  // plain field is safe (the mutex itself orders access).
  int64_t hold_start_ns_ = 0;
};

}  // namespace sash::obs

#endif  // SASH_OBS_LOCKPROBE_H_
