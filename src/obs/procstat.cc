#include "obs/procstat.h"

#include <cstdio>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "obs/journal.h"

namespace sash::obs {

namespace {

// Reads a "Key:   <n> kB" line from /proc/self/status; -1 when absent.
int64_t ProcStatusKb(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return -1;
  }
  int64_t value = -1;
  char line[256];
  size_t key_len = std::strlen(key);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0 && line[key_len] == ':') {
      long long kb = 0;
      if (std::sscanf(line + key_len + 1, "%lld", &kb) == 1) {
        value = kb;
      }
      break;
    }
  }
  std::fclose(f);
  return value;
}

}  // namespace

int64_t CurrentRssKb() {
  int64_t kb = ProcStatusKb("VmRSS");
  return kb > 0 ? kb : 0;
}

int64_t PeakRssKb() {
  int64_t kb = ProcStatusKb("VmHWM");
  if (kb > 0) {
    return kb;
  }
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage = {};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
#if defined(__APPLE__)
    return usage.ru_maxrss / 1024;  // Bytes on macOS.
#else
    return usage.ru_maxrss;  // Already KiB on Linux.
#endif
  }
#endif
  return 0;
}

RssSampler::RssSampler(EventJournal* journal, int period_ms)
    : journal_(journal), period_ms_(period_ms > 0 ? period_ms : 25) {
  SampleOnce();
  if (journal_ != nullptr) {
    thread_ = std::thread([this] {
      std::unique_lock<std::mutex> lock(mu_);
      while (!stop_) {
        cv_.wait_for(lock, std::chrono::milliseconds(period_ms_), [this] { return stop_; });
        if (stop_) {
          break;
        }
        lock.unlock();
        SampleOnce();
        lock.lock();
      }
    });
  }
}

RssSampler::~RssSampler() {
  if (thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  SampleOnce();  // Final sample so short runs still get an endpoint.
}

void RssSampler::SampleOnce() {
  if (journal_ == nullptr) {
    return;  // Nothing would record the sample; skip the /proc read.
  }
  int64_t rss = CurrentRssKb();
  if (rss > 0) {
    journal_->Emit(EventKind::kRss, "process.rss_kb", rss);
  }
}

}  // namespace sash::obs
