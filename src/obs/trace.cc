#include "obs/trace.h"

#include <atomic>

namespace sash::obs {

// Dense per-thread ids so exported traces (and journal events) have small,
// stable tid values; one sequence for the whole process.
uint32_t CurrentThreadId() {
  static std::atomic<uint32_t> next{0};
  thread_local uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

namespace {

// Per-thread nesting depth of the armed spans and phases open on it.
thread_local int tls_span_depth = 0;

}  // namespace

Span::Span(EventJournal* journal, EventKind kind, const char* name, bool always_timed)
    : journal_(journal), kind_(kind), name_(name), open_(journal != nullptr || always_timed) {
  if (!open_) {
    return;
  }
  if (journal_ != nullptr) {
    depth_ = tls_span_depth++;
  }
  start_ = std::chrono::steady_clock::now();
}

int64_t Span::End() {
  if (!open_) {
    return 0;
  }
  open_ = false;
  const int64_t micros = std::chrono::duration_cast<std::chrono::microseconds>(
                             std::chrono::steady_clock::now() - start_)
                             .count();
  if (journal_ != nullptr) {
    --tls_span_depth;
    journal_->EmitAt(journal_->MicrosAt(start_), kind_, name_, micros, depth_);
  }
  return micros;
}

}  // namespace sash::obs
