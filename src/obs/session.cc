#include "obs/session.h"

#include <cstdio>

#include "obs/profile.h"

namespace sash::obs {

Session::Session(SessionOptions options) : options_(std::move(options)) {
  if (!options_.trace_out.empty()) {
    tracer_ = std::make_unique<Tracer>();
  }
  if (options_.metrics) {
    metrics_ = std::make_unique<Registry>();
  }
  if (!options_.journal_out.empty()) {
    journal_ = std::make_unique<EventJournal>();
    EventJournal::SetGlobal(journal_.get());
  }
  if (options_.arm_lock_probes) {
    LockProbes::Reset();
    LockProbes::Arm();
    armed_ = true;
  }
}

Session::~Session() {
  if (armed_) {
    LockProbes::Disarm();
  }
}

bool Session::Finish(const char* who) {
  if (armed_) {
    LockProbes::Disarm();
    armed_ = false;
    JournalLockSites(journal_.get());
  }
  bool ok = true;
  auto report = [&](const std::string& path) {
    std::fprintf(stderr, "%s: cannot write %s\n", who, path.c_str());
    ok = false;
  };
  if (journal_ != nullptr && !journal_->WriteJsonl(options_.journal_out)) {
    report(options_.journal_out);
  }
  if (tracer_ != nullptr && !tracer_->WriteChromeJson(options_.trace_out)) {
    report(options_.trace_out);
  }
  return ok;
}

}  // namespace sash::obs
