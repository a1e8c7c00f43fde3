// End-to-end Fig. 4 pipeline: docs → guardrailed syntax → invocation sweep →
// instrumented probing → compiled Hoare specs → validation vs ground truth.
#ifndef SASH_MINING_PIPELINE_H_
#define SASH_MINING_PIPELINE_H_

#include <string>
#include <vector>

#include "mining/doc_miner.h"
#include "mining/spec_compiler.h"
#include "obs/obs.h"
#include "specs/library.h"

namespace sash::mining {

struct MiningOutcome {
  std::string command;
  bool ok = false;
  std::string error;
  specs::SyntaxSpec syntax;
  specs::CommandSpec spec;
  int invocations = 0;
  int environments = 0;
  int probes = 0;
  int cases = 0;
  ValidationReport validation;  // Against BuiltinGroundTruth when available.
};

// Mines one command from the bundled corpus. With a journal attached, each
// stage (doc-mine, probe, compile) is traced as a span.
MiningOutcome MineCommand(const std::string& name, obs::EventJournal* journal = nullptr);

// Mines every documented command; results sorted by name.
std::vector<MiningOutcome> MineAll(obs::EventJournal* journal = nullptr);

// Registers every successfully mined spec into a library (mined specs
// replace nothing — the library starts empty).
specs::SpecLibrary MinedLibrary();

}  // namespace sash::mining

#endif  // SASH_MINING_PIPELINE_H_
