#include "obs/profile.h"

#include <algorithm>
#include <cstdio>

#include "obs/json.h"

namespace sash::obs {

namespace {

// One span of the rendered timeline.
struct TimedSpan {
  const char* name;
  int64_t ts_us;
  int64_t dur_us;
  uint32_t tid;
  int depth;
};

// An open span on the per-thread reconstruction stack.
struct OpenFrame {
  std::string path;        // "a;b;c" up to and including this span.
  int64_t duration_us = 0;
  int64_t child_us = 0;    // Time covered by direct children.
};

void FoldFrame(std::map<std::string, int64_t>* folded, const OpenFrame& frame) {
  int64_t self = frame.duration_us - frame.child_us;
  if (self < 0) {
    self = 0;
  }
  (*folded)[frame.path] += self;
}

std::string FormatMs(int64_t us) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", static_cast<double>(us) / 1000.0);
  return buf;
}

}  // namespace

TimelineViews RenderTimeline(const std::vector<Event>& events, int64_t dropped) {
  std::vector<TimedSpan> spans;
  std::vector<const Event*> samples;
  std::map<uint32_t, int64_t> task_start_us;  // tid -> its open task's start.
  std::map<uint32_t, int64_t> lanes;          // tid -> worker index.
  for (const Event& e : events) {
    switch (e.kind) {
      case EventKind::kSpan:
      case EventKind::kPhase:
        spans.push_back({e.name, e.ts_us, e.a, e.tid, static_cast<int>(e.b)});
        break;
      case EventKind::kTaskStart:
        task_start_us[e.tid] = e.ts_us;
        lanes[e.tid] = e.a;
        break;
      case EventKind::kTaskStop: {
        // Without its task_start (lost to wrap-around, and so was every
        // earlier event of the thread), the duration still places the task.
        auto it = task_start_us.find(e.tid);
        int64_t start = it != task_start_us.end() ? it->second : e.ts_us - e.b;
        // Depth -1 until the lane shift below makes the task its lane's root.
        spans.push_back({"task", start, e.b, e.tid, -1});
        lanes[e.tid] = e.a;
        break;
      }
      case EventKind::kRss:
      case EventKind::kCounter:
        samples.push_back(&e);
        break;
      default:
        break;
    }
  }
  // A worker runs spans only inside tasks, and their depth counts from the
  // task's inside; shift every span on a worker lane one level down.
  for (TimedSpan& span : spans) {
    span.depth += lanes.count(span.tid) != 0 ? 1 : 0;
  }
  // Ties (sub-microsecond spans) resolve by depth so a parent precedes the
  // children that started within the same microsecond.
  std::stable_sort(spans.begin(), spans.end(), [](const TimedSpan& a, const TimedSpan& b) {
    return a.ts_us != b.ts_us ? a.ts_us < b.ts_us : a.depth < b.depth;
  });

  JsonWriter w;
  w.BeginObject();
  w.Key("traceEvents").BeginArray();
  for (const TimedSpan& span : spans) {
    w.BeginObject();
    w.KV("name", span.name);
    w.KV("ph", "X");  // Complete event: ts + dur.
    w.KV("ts", span.ts_us);
    w.KV("dur", span.dur_us);
    w.KV("pid", int64_t{1});
    w.KV("tid", static_cast<int64_t>(span.tid));
    w.Key("args").BeginObject().KV("depth", span.depth).EndObject();
    w.EndObject();
  }
  for (const Event* e : samples) {
    w.BeginObject();
    w.KV("name", e->kind == EventKind::kRss ? "rss_kb" : e->name);
    w.KV("ph", "C");  // Counter track sample.
    w.KV("ts", e->ts_us);
    w.KV("pid", int64_t{1});
    w.KV("tid", int64_t{0});
    w.Key("args").BeginObject().KV("value", e->a).EndObject();
    w.EndObject();
  }
  for (const auto& [tid, worker] : lanes) {
    w.BeginObject();
    w.KV("name", "thread_name");
    w.KV("ph", "M");  // Metadata: labels the tid's lane in the viewer.
    w.KV("pid", int64_t{1});
    w.KV("tid", static_cast<int64_t>(tid));
    w.Key("args").BeginObject().KV("name", "worker-" + std::to_string(worker)).EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.Key("otherData").BeginObject().KV("dropped", dropped).EndObject();
  w.KV("displayTimeUnit", "ms");
  w.EndObject();

  // Sorted by start with parents first, so a per-thread stack keyed by
  // depth reconstructs the nesting.
  std::map<std::string, int64_t> folded;
  std::map<uint32_t, std::vector<OpenFrame>> stacks;
  for (const TimedSpan& span : spans) {
    std::vector<OpenFrame>& stack = stacks[span.tid];
    // Anything at this depth or deeper has ended (spans at one depth on one
    // thread cannot overlap).
    while (static_cast<int>(stack.size()) > span.depth) {
      FoldFrame(&folded, stack.back());
      stack.pop_back();
    }
    OpenFrame frame;
    frame.path = stack.empty() ? span.name : stack.back().path + ";" + span.name;
    frame.duration_us = span.dur_us;
    if (!stack.empty()) {
      stack.back().child_us += span.dur_us;
    }
    stack.push_back(std::move(frame));
  }
  for (auto& [tid, stack] : stacks) {
    while (!stack.empty()) {
      FoldFrame(&folded, stack.back());
      stack.pop_back();
    }
  }
  TimelineViews views;
  views.chrome_json = w.Take();
  for (const auto& [path, self_us] : folded) {
    views.folded += path + ' ' + std::to_string(self_us) + '\n';
  }
  return views;
}

std::optional<JournalSummary> SummarizeJsonl(std::string_view text,
                                             std::vector<std::string>* problems) {
  std::vector<std::string> local = EventJournal::ValidateJsonl(text);
  if (problems != nullptr) {
    *problems = local;
  }
  if (!local.empty()) {
    return std::nullopt;
  }
  JournalSummary summary;
  std::map<int64_t, JournalSummary::Worker> workers;  // By worker index.
  size_t pos = 0;
  size_t line_no = 0;
  while (pos <= text.size()) {
    size_t eol = text.find('\n', pos);
    std::string_view line =
        eol == std::string_view::npos ? text.substr(pos) : text.substr(pos, eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    if (line.empty()) {
      continue;
    }
    ++line_no;
    std::optional<JsonValue> doc = JsonValue::Parse(line);
    if (!doc.has_value()) {
      continue;  // Validator already passed, so this should not happen.
    }
    auto num = [&doc](const char* key) -> int64_t {
      const JsonValue* v = doc->Find(key);
      return v != nullptr && v->is_number() ? static_cast<int64_t>(v->number) : 0;
    };
    if (line_no == 1) {
      summary.emitted = num("emitted");
      summary.dropped = num("dropped");
      continue;
    }
    const std::string& ev = doc->Find("ev")->string;
    const int64_t ts_us = num("ts_us");
    const int64_t a = num("a");
    const int64_t b = num("b");
    // Span and phase events are stamped with their start; they end a later.
    summary.span_us = std::max(summary.span_us, ev == "span" || ev == "phase" ? ts_us + a : ts_us);
    if (ev == "task_stop") {
      JournalSummary::Worker& w = workers[a];
      w.busy_us += b;
      ++w.tasks;
    } else if (ev == "task_start") {
      workers[a];  // Make the worker visible even if its task never ends.
    } else if (ev == "steal") {
      ++workers[a].steals;
    } else if (ev == "phase") {
      summary.phase_us[doc->Find("name")->string] += a;
    } else if (ev == "rss") {
      // a = current RSS at the sample, b = the kernel's high-water mark;
      // either may lead depending on when the sampler last fired.
      summary.peak_rss_kb = std::max({summary.peak_rss_kb, a, b});
    }
  }
  for (auto& [index, worker] : workers) {
    worker.worker = index;
    summary.workers.push_back(worker);
  }
  return summary;
}

std::string FormatReport(const JournalSummary& summary) {
  std::string out = "== workers ==\n";
  if (summary.workers.empty()) {
    out += "  (no worker events)\n";
  }
  for (const JournalSummary::Worker& w : summary.workers) {
    double util = summary.span_us > 0
                      ? 100.0 * static_cast<double>(w.busy_us) / static_cast<double>(summary.span_us)
                      : 0.0;
    char line[160];
    std::snprintf(line, sizeof(line),
                  "  worker %lld: %5.1f%% busy  tasks=%lld  steals=%lld  busy=%sms\n",
                  static_cast<long long>(w.worker), util, static_cast<long long>(w.tasks),
                  static_cast<long long>(w.steals), FormatMs(w.busy_us).c_str());
    out += line;
  }
  out += "== phases ==\n";
  if (summary.phase_us.empty()) {
    out += "  (no phase events)\n";
  }
  int64_t total_phase_us = 0;
  for (const auto& [name, us] : summary.phase_us) {
    total_phase_us += us;
  }
  for (const auto& [name, us] : summary.phase_us) {
    double pct = total_phase_us > 0
                     ? 100.0 * static_cast<double>(us) / static_cast<double>(total_phase_us)
                     : 0.0;
    char line[160];
    std::snprintf(line, sizeof(line), "  %-12s %sms (%4.1f%%)\n", name.c_str(),
                  FormatMs(us).c_str(), pct);
    out += line;
  }
  out += "== run ==\n";
  out += "  wall span: " + FormatMs(summary.span_us) + "ms\n";
  if (summary.peak_rss_kb > 0) {
    out += "  peak rss: " + std::to_string(summary.peak_rss_kb) + " kB\n";
  }
  if (summary.emitted > 0) {
    out += "  journal: " + std::to_string(summary.emitted) + " events emitted, " +
           std::to_string(summary.dropped) + " dropped\n";
  }
  return out;
}

}  // namespace sash::obs
