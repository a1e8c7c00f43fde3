#include "obs/session.h"

#include <cstdio>
#include <fstream>

#include "obs/profile.h"

namespace sash::obs {

Session::Session(SessionOptions options) : options_(std::move(options)) {
  if (!options_.journal_out.empty() || !options_.trace_out.empty() ||
      !options_.folded_out.empty()) {
    journal_ = std::make_unique<EventJournal>();
    EventJournal::SetGlobal(journal_.get());
  }
}

bool Session::Finish(const char* who) {
  if (journal_ == nullptr) {
    return true;
  }
  bool ok = true;
  auto write = [&](const std::string& path, const std::string& text) {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << text;
    if (!out) {
      std::fprintf(stderr, "%s: cannot write %s\n", who, path.c_str());
      ok = false;
    }
  };
  if (!options_.journal_out.empty()) {
    write(options_.journal_out, journal_->ToJsonl());
  }
  if (!options_.trace_out.empty() || !options_.folded_out.empty()) {
    TimelineViews views = RenderTimeline(journal_->Drain(), journal_->dropped());
    if (!options_.trace_out.empty()) {
      write(options_.trace_out, views.chrome_json + '\n');
    }
    if (!options_.folded_out.empty()) {
      write(options_.folded_out, views.folded);
    }
  }
  return ok;
}

}  // namespace sash::obs
