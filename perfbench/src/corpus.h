// The seeded corpus and data generator. Every input a workload feeds sash is
// made here from the run's seed, together with its known answer: the
// finding codes planted in each script, which scripts are built to overflow
// the symbolic-execution state cap, and which monitor inputs carry a line
// that must be caught at a given pipe boundary.
#ifndef PERFBENCH_CORPUS_H_
#define PERFBENCH_CORPUS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "json.h"

namespace perfbench {

// splitmix64 stream keyed by (seed, stream, index): the same key gives the
// same numbers on every host and standard library.
class Rng {
 public:
  Rng(uint64_t seed, uint64_t stream, uint64_t index);
  uint64_t Next();
  int Range(int lo, int hi);  // Inclusive.
  bool Chance(int percent) { return Range(1, 100) <= percent; }

 private:
  uint64_t state_;
};

inline constexpr char kCodeDelRoot[] = "SASH-DEL-ROOT";
inline constexpr char kCodeDeadStream[] = "SASH-DEAD-STREAM";

// The shape of one workload's scripts.
struct ScriptMix {
  int min_statements = 4;   // Script length, in generated statements.
  int max_statements = 40;
  int max_branches = 2;     // Unknown branches (each one forks symex).
  int max_depth = 3;        // Function-call and $(...) nesting depth.
  int pattern_pool = 32;    // Distinct grep patterns (PatternCache working set).
  int hazard_percent = 25;  // Share of scripts with each planted hazard.
  int heavy_per_mille = 0;  // Scripts built to overflow the 128-state cap.
};

struct Script {
  std::string name;
  std::string text;
  std::vector<std::string> planted;  // Codes the report must contain.
  bool heavy = false;                // May degrade with "state-cap".
};

// Script `index` of the corpus for `seed`; deterministic per (seed, index),
// so a stream can name scripts by index. Heavy scripts are placed at fixed
// strides, so every corpus of one size has the same number of them.
Script GenerateScript(uint64_t seed, int index, const ScriptMix& mix);
std::vector<Script> GenerateScripts(uint64_t seed, int count, const ScriptMix& mix);

// Checks a sash-analysis-v1 report against the script's known answer:
// every planted code present, no SASH-DEL-ROOT or SASH-DEAD-STREAM where
// none was planted, and no degradation unless the script is heavy. Returns
// "" when the report is right, else what is wrong.
std::string CheckReport(const Script& script, const Json& report);

// One monitor_stream input: a CSV file in the in-memory file system and the
// pipeline that reads it.
struct MonitorCase {
  std::string path;      // In the fs::FileSystem.
  std::string data;
  std::string pipeline;  // cat/grep/cut/sort/uniq stages.
  bool planted = false;  // Carries a line that violates a stage's type.
  int boundary = -1;     // Where the planted line must be caught.
  std::string violating_line;
};

std::vector<MonitorCase> GenerateMonitorCases(uint64_t seed, int inputs, int lines_per_input);

}  // namespace perfbench

#endif  // PERFBENCH_CORPUS_H_
