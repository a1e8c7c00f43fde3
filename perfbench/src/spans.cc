#include "spans.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <map>

#include "json.h"
#include "proc.h"

namespace perfbench {

int SpanLog::Begin(const char* name, int64_t request_id) {
  int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, NowNs(), 0, parent, request_id});
  int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void SpanLog::End(int index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) {
    open_.pop_back();
  }
}

int SpanLog::AddChild(const char* name, int64_t start_ns, int64_t end_ns, int64_t request_id,
                      int parent) {
  if (parent == kInnermost) {
    parent = open_.empty() ? -1 : open_.back();
  }
  spans_.push_back(Span{name, start_ns, end_ns, parent, request_id});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<double> SpanMicros(const std::vector<const SpanLog*>& logs, const char* name) {
  std::vector<double> out;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      if (std::strcmp(s.name, name) == 0) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      }
    }
  }
  return out;
}

std::vector<LayerRow> SelfTimeTable(const std::vector<const SpanLog*>& logs, double* root_ms) {
  std::map<std::string, LayerRow> rows;
  *root_ms = 0;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const char* dot = std::strchr(s.name, '.');
      std::string layer =
          s.parent < 0 || dot == nullptr ? "unattributed" : std::string(s.name, dot);
      if (s.parent < 0) {
        *root_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      }
      LayerRow& row = rows[layer];
      row.layer = layer;
      row.self_ms += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e6;
      ++row.spans;
    }
  }
  std::vector<LayerRow> out;
  for (auto& [name, row] : rows) {
    out.push_back(row);
  }
  std::sort(out.begin(), out.end(),
            [](const LayerRow& a, const LayerRow& b) { return a.self_ms > b.self_ms; });
  return out;
}

bool WriteSpans(const std::vector<const SpanLog*>& logs, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return false;
  }
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      std::string line = "{\"name\":";
      AppendJsonString(&line, s.name);
      line += ",\"thread\":" + std::to_string(log->thread()) +
              ",\"start_ns\":" + std::to_string(s.start_ns) +
              ",\"end_ns\":" + std::to_string(s.end_ns) + ",\"parent\":" + std::to_string(s.parent);
      if (s.request_id >= 0) {
        line += ",\"request_id\":" + std::to_string(s.request_id);
      }
      line += "}\n";
      out << line;
    }
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
