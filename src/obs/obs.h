// Umbrella header for the observability subsystem, plus the Hooks bundle the
// analysis pipeline threads through its layers. Both pointers are optional
// and non-owning; a default-constructed Hooks disables everything at the cost
// of one branch per instrumentation site. The journal is the one timeline
// sink: spans, phases and pool tasks all land there.
#ifndef SASH_OBS_OBS_H_
#define SASH_OBS_OBS_H_

#include "obs/journal.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sash::obs {

struct Hooks {
  Registry* metrics = nullptr;
  EventJournal* journal = nullptr;

  bool enabled() const { return metrics != nullptr || journal != nullptr; }
};

}  // namespace sash::obs

#endif  // SASH_OBS_OBS_H_
