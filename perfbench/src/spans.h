// In-memory span recording for the traced run. Spans are taken in the
// benchmark's own code, around its calls into one layer's public functions;
// nothing inside sash is instrumented. Each thread owns one SpanLog (no
// locks on the recording path); the logs are merged, reduced to per-layer
// self times, and written out once, after the run.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name;     // "<layer>.<what>", or a root name with no dot.
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;       // Index into the same log; -1 for a root.
  int64_t request_id;   // serve_mixed request id; -1 elsewhere.
};

class SpanLog {
 public:
  explicit SpanLog(int thread) : thread_(thread) { spans_.reserve(1 << 14); }

  int Begin(const char* name, int64_t request_id = -1);
  void End(int index);
  // Records a span whose interval was measured elsewhere (the server-side
  // share of a request, a phase time a report lists) as a child of `parent`,
  // or of the innermost open span when `parent` is kInnermost. Returns its
  // index.
  static constexpr int kInnermost = -2;
  int AddChild(const char* name, int64_t start_ns, int64_t end_ns, int64_t request_id,
               int parent = kInnermost);

  const std::vector<Span>& spans() const { return spans_; }
  int thread() const { return thread_; }

 private:
  int thread_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a null log records nothing (the untraced pass).
class Scope {
 public:
  Scope(SpanLog* log, const char* name, int64_t request_id = -1)
      : log_(log), index_(log != nullptr ? log->Begin(name, request_id) : -1) {}
  ~Scope() { End(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  void End() {
    if (log_ != nullptr && !ended_) {
      log_->End(index_);
      ended_ = true;
    }
  }
  // The span's index in its log; -1 with no log.
  int index() const { return index_; }

 private:
  SpanLog* log_;
  int index_;
  bool ended_ = false;
};

// Durations in microseconds of every span called `name`, over all logs.
std::vector<double> SpanMicros(const std::vector<const SpanLog*>& logs, const char* name);

struct LayerRow {
  std::string layer;  // Span-name prefix before the first '.'; "unattributed"
                      // for root self time.
  double self_ms = 0;
  int64_t spans = 0;
};

// Per-layer self time (span duration minus its children's) over all logs,
// sorted by self time, with the root spans' self time as "unattributed".
// `*root_ms` receives the total root duration (the traced wall time summed
// over threads).
std::vector<LayerRow> SelfTimeTable(const std::vector<const SpanLog*>& logs, double* root_ms);

// Writes every span as one JSON line.
bool WriteSpans(const std::vector<const SpanLog*>& logs, const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
