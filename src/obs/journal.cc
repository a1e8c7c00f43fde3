#include "obs/journal.h"

#include <algorithm>
#include <set>

#include "obs/json.h"
#include "obs/trace.h"

namespace sash::obs {

std::atomic<EventJournal*> EventJournal::global_{nullptr};

std::string_view EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kTaskStart:
      return "task_start";
    case EventKind::kTaskStop:
      return "task_stop";
    case EventKind::kSteal:
      return "steal";
    case EventKind::kQueueDepth:
      return "queue_depth";
    case EventKind::kRss:
      return "rss";
    case EventKind::kPhase:
      return "phase";
    case EventKind::kCounter:
      return "counter";
    case EventKind::kMark:
      return "mark";
    case EventKind::kSpan:
      return "span";
  }
  return "?";
}

namespace {

size_t RoundUpPow2(size_t n) {
  size_t p = 1024;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

// The validator's catalogue of legal "ev" values.
const std::set<std::string>& KnownKinds() {
  static const std::set<std::string>* kinds = [] {
    auto* s = new std::set<std::string>();
    for (int k = 0; k <= static_cast<int>(EventKind::kSpan); ++k) {
      s->insert(std::string(EventKindName(static_cast<EventKind>(k))));
    }
    return s;
  }();
  return *kinds;
}

}  // namespace

EventJournal::EventJournal(size_t capacity)
    : capacity_(RoundUpPow2(capacity)),
      slots_(new Slot[RoundUpPow2(capacity)]),
      epoch_(std::chrono::steady_clock::now()) {}

EventJournal::~EventJournal() {
  // Un-publish on destruction so a stale global pointer cannot dangle past
  // the owner's scope (a Session installs it for the run, then destroys it).
  EventJournal* self = this;
  global_.compare_exchange_strong(self, nullptr, std::memory_order_acq_rel);
}

void EventJournal::EmitAt(int64_t ts_us, EventKind kind, const char* name, int64_t a, int64_t b,
                          int64_t c, int64_t d) {
  uint64_t seq = cursor_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[seq & (capacity_ - 1)];
  // Mark the slot as in-flight so a concurrent Drain skips it rather than
  // reading a half-written payload (Drain is only meaningful when producers
  // are quiescent, but it must never read torn data even when misused).
  slot.stamp.store(kEmpty, std::memory_order_relaxed);
  slot.event.ts_us = ts_us;
  slot.event.seq = seq;
  slot.event.tid = CurrentThreadId();
  slot.event.kind = kind;
  slot.event.name = name;
  slot.event.a = a;
  slot.event.b = b;
  slot.event.c = c;
  slot.event.d = d;
  slot.stamp.store(seq, std::memory_order_release);
}

int64_t EventJournal::dropped() const {
  int64_t total = emitted();
  int64_t cap = static_cast<int64_t>(capacity_);
  return total > cap ? total - cap : 0;
}

std::vector<Event> EventJournal::Drain() const {
  std::vector<Event> out;
  uint64_t total = cursor_.load(std::memory_order_acquire);
  uint64_t first = total > capacity_ ? total - capacity_ : 0;
  out.reserve(static_cast<size_t>(total - first));
  for (uint64_t seq = first; seq < total; ++seq) {
    const Slot& slot = slots_[seq & (capacity_ - 1)];
    if (slot.stamp.load(std::memory_order_acquire) != seq) {
      continue;  // Overwritten or still in flight.
    }
    out.push_back(slot.event);
  }
  std::sort(out.begin(), out.end(), [](const Event& x, const Event& y) { return x.seq < y.seq; });
  return out;
}

std::string EventJournal::ToJsonl() const {
  std::vector<Event> events = Drain();
  std::string out;
  {
    JsonWriter w;
    w.BeginObject();
    w.KV("schema", kEventsSchema);
    w.KV("capacity", static_cast<int64_t>(capacity_));
    w.KV("emitted", emitted());
    w.KV("dropped", dropped());
    w.EndObject();
    out += w.Take();
    out += '\n';
  }
  for (const Event& e : events) {
    JsonWriter w;
    w.BeginObject();
    w.KV("ev", EventKindName(e.kind));
    w.KV("seq", static_cast<int64_t>(e.seq));
    w.KV("ts_us", e.ts_us);
    w.KV("tid", static_cast<int64_t>(e.tid));
    w.KV("name", e.name);
    w.KV("a", e.a);
    w.KV("b", e.b);
    w.KV("c", e.c);
    w.KV("d", e.d);
    w.EndObject();
    out += w.Take();
    out += '\n';
  }
  return out;
}

std::vector<std::string> EventJournal::ValidateJsonl(std::string_view text) {
  std::vector<std::string> problems;
  size_t line_no = 0;
  size_t pos = 0;
  int64_t prev_seq = -1;
  bool saw_header = false;
  while (pos <= text.size()) {
    size_t eol = text.find('\n', pos);
    std::string_view line =
        eol == std::string_view::npos ? text.substr(pos) : text.substr(pos, eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    if (line.empty()) {
      continue;
    }
    ++line_no;
    std::string where = "line " + std::to_string(line_no);
    std::optional<JsonValue> doc = JsonValue::Parse(line);
    if (!doc.has_value() || !doc->is_object()) {
      problems.push_back(where + ": not a JSON object");
      continue;
    }
    if (line_no == 1) {
      saw_header = true;
      const JsonValue* schema = doc->Find("schema");
      if (schema == nullptr || !schema->is_string() || schema->string != kEventsSchema) {
        problems.push_back(where + ": header schema must be \"" + kEventsSchema + "\"");
      }
      for (const char* key : {"capacity", "emitted", "dropped"}) {
        const JsonValue* v = doc->Find(key);
        if (v == nullptr || !v->is_number()) {
          problems.push_back(where + ": header missing numeric '" + key + "'");
        }
      }
      continue;
    }
    const JsonValue* ev = doc->Find("ev");
    if (ev == nullptr || !ev->is_string() || KnownKinds().count(ev->string) == 0) {
      problems.push_back(where + ": 'ev' must be a known event kind");
    }
    const JsonValue* name = doc->Find("name");
    if (name == nullptr || !name->is_string()) {
      problems.push_back(where + ": 'name' must be a string");
    }
    for (const char* key : {"seq", "ts_us", "tid", "a", "b", "c", "d"}) {
      const JsonValue* v = doc->Find(key);
      if (v == nullptr || !v->is_number()) {
        problems.push_back(where + ": missing numeric '" + std::string(key) + "'");
      }
    }
    if (const JsonValue* seq = doc->Find("seq"); seq != nullptr && seq->is_number()) {
      int64_t s = static_cast<int64_t>(seq->number);
      if (s <= prev_seq) {
        problems.push_back(where + ": seq not strictly increasing");
      }
      prev_seq = s;
    }
  }
  if (!saw_header) {
    problems.push_back("empty document: missing sash-events-v1 header line");
  }
  return problems;
}

}  // namespace sash::obs
