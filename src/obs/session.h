// One command's observability set-up, paid for only as far as it is used.
// The event journal is built only when the run asks for one of its views; a
// Session with nothing requested allocates nothing and hands out a null
// journal, so the disabled path costs one branch per instrumentation site
// and no start-up time. The journal is the one timeline: the Chrome trace
// and the folded stacks are views of it, rendered at Finish. `sash
// analyze`, `sash serve` and each supervised daemon incarnation share it.
//
//   obs::Session session({.trace_out = "t.json"});
//   batch.journal = session.journal();
//   ... run ...
//   if (!session.Finish("sash")) return 2;   // writes t.json
#ifndef SASH_OBS_SESSION_H_
#define SASH_OBS_SESSION_H_

#include <memory>
#include <string>

#include "obs/obs.h"

namespace sash::obs {

struct SessionOptions {
  std::string trace_out{};    // Non-empty: keep the journal; Finish writes the
                              // Chrome trace rendered from it.
  std::string journal_out{};  // Non-empty: keep the journal; Finish writes its JSONL.
  std::string folded_out{};   // Non-empty: keep the journal; Finish writes the
                              // collapsed stacks rendered from it.
                              // Any of the three installs the journal as
                              // EventJournal::Global() for the session.
};

class Session {
 public:
  // The journal uninstalls itself on destruction.
  explicit Session(SessionOptions options);
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  EventJournal* journal() const { return journal_.get(); }

  // Writes the requested views of the drained journal: the JSONL, the
  // Chrome trace and the collapsed stacks. Each unwritable file is reported
  // on stderr as "<who>: cannot write PATH"; false when any write failed.
  bool Finish(const char* who);

 private:
  SessionOptions options_;
  std::unique_ptr<EventJournal> journal_;
};

}  // namespace sash::obs

#endif  // SASH_OBS_SESSION_H_
