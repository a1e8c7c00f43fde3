// Probing with interposition (Fig. 4, middle): generate test configurations
// sweeping flags and file-system shapes, instantiate concrete environments,
// execute each invocation with interposition, and record its interactions.
#ifndef SASH_MINING_PROBER_H_
#define SASH_MINING_PROBER_H_

#include <string>
#include <vector>

#include "fs/filesystem.h"
#include "specs/syntax_spec.h"
#include "util/cancel.h"

namespace sash::mining {

// The file-system shape installed at one operand's path before a probe.
enum class OperandShape { kFile, kDirWithChild, kEmptyDir, kAbsent };

std::string_view OperandShapeName(OperandShape s);

struct ProbeEnvironment {
  std::vector<OperandShape> shapes;  // One per path operand.
  std::string Describe() const;
};

// One planned configuration sweep for a command.
struct ProbePlan {
  specs::SyntaxSpec syntax;
  std::vector<specs::Invocation> invocations;     // Flag sweeps.
  std::vector<ProbeEnvironment> environments;     // FS-shape sweeps.
  std::vector<int> path_operand_indices;          // Which operands are paths.
};

// Enumerates boolean-flag subsets (argument-taking flags are excluded from
// the sweep) and environment shapes for every path operand. Flag counts are
// capped to keep the sweep tractable.
ProbePlan EnumerateProbes(const specs::SyntaxSpec& syntax, int max_boolean_flags = 6);

// One executed probe with its observations.
struct ProbeRecord {
  specs::Invocation invocation;
  ProbeEnvironment env;
  int exit_code = 0;
  bool stdout_nonempty = false;
  bool stderr_nonempty = false;
  fs::FileSystem::Snapshot before;
  fs::FileSystem::Snapshot after;
  std::vector<fs::TraceEntry> trace;
};

// Executes every (invocation × environment) pair of the plan in a fresh
// FileSystem, recording snapshots and the interposition trace. When `cancel`
// expires mid-sweep, the records gathered so far are returned (a partial
// mining sweep still yields a usable, if weaker, spec).
std::vector<ProbeRecord> RunProbes(const ProbePlan& plan,
                                   util::CancelToken* cancel = nullptr);

// The canonical path used for operand i in probe environments.
std::string ProbeOperandPath(int index);

}  // namespace sash::mining

#endif  // SASH_MINING_PROBER_H_
