// Umbrella header for the observability subsystem. The pipeline threads one
// optional, non-owning obs::EventJournal* through its layers; a null journal
// disables everything at the cost of one branch per instrumentation site.
// The journal is the one telemetry sink: spans, phases, pool tasks and
// counter samples all land there. Run statistics are not telemetry: they
// stay in the plain structs of the objects that produce them
// (symex::EngineStats, core::AnalysisStats, batch::BatchResult,
// serve::ServerStats), and `--stats` renders those.
#ifndef SASH_OBS_OBS_H_
#define SASH_OBS_OBS_H_

#include <cstdint>
#include <map>
#include <string>

#include "obs/journal.h"
#include "obs/json.h"
#include "obs/trace.h"

namespace sash::obs {

// Run statistics by name, as `--stats`, serve's `stats` reply and the bench
// reports render them.
using NamedValues = std::map<std::string, int64_t, std::less<>>;

}  // namespace sash::obs

#endif  // SASH_OBS_OBS_H_
