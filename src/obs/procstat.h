// Process memory introspection and the periodic RSS sampler. The sampler
// makes the resident set a live series in the event journal (and so a
// counter track in the Chrome trace rendered from it), so the trace shows
// where memory went during a batch run, not just where it ended. `--stats`
// reads CurrentRssKb() and PeakRssKb() directly when it prints.
#ifndef SASH_OBS_PROCSTAT_H_
#define SASH_OBS_PROCSTAT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "obs/obs.h"

namespace sash::obs {

// Current resident set in KiB (VmRSS on Linux); 0 when unavailable.
int64_t CurrentRssKb();

// Peak resident set in KiB (VmHWM on Linux, getrusage fallback); 0 when
// unavailable.
int64_t PeakRssKb();

// Samples RSS on a background thread for the lifetime of the object and
// journals each sample as an rss event (the trace's "rss_kb" track). One
// sample is taken immediately on construction and one on destruction, so
// even runs shorter than the period get endpoints.
class RssSampler {
 public:
  // A sampler with a null journal is inert: no thread, no /proc reads.
  explicit RssSampler(EventJournal* journal, int period_ms = 25);
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

 private:
  void SampleOnce();

  EventJournal* journal_;
  int period_ms_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace sash::obs

#endif  // SASH_OBS_PROCSTAT_H_
