// Process memory introspection and the periodic RSS sampler. The sampler
// makes the resident set a live series in the event journal (and so a
// counter track in the Chrome trace rendered from it) and a gauge in the
// metrics registry, so the trace, the journal, and the bench JSON all agree
// on where memory went during a batch run, not just where it ended.
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

// Samples RSS (and the registry's "cache.hits" counter) on a background
// thread for the lifetime of the object. Each sample updates the
// "process.rss_kb" gauge, raises "process.peak_rss_kb", and journals an rss
// event plus a "cache.hits" counter event (the trace's "rss_kb" and
// "cache.hits" tracks). One sample is taken immediately on construction and
// one on destruction, so even runs shorter than the period get endpoints.
class RssSampler {
 public:
  // Any Hooks member may be null; a sampler with nothing attached is inert.
  explicit RssSampler(Hooks hooks, int period_ms = 25);
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

 private:
  void SampleOnce();

  Hooks hooks_;
  Gauge* rss_gauge_ = nullptr;
  Gauge* peak_gauge_ = nullptr;
  Counter* cache_hits_ = nullptr;   // Sampled into the "cache.hits" track.
  int period_ms_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace sash::obs

#endif  // SASH_OBS_PROCSTAT_H_
