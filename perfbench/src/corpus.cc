#include "corpus.h"

#include <algorithm>

namespace perfbench {

Rng::Rng(uint64_t seed, uint64_t stream, uint64_t index)
    : state_(seed * 0x9E3779B97F4A7C15ull ^ (stream + 1) * 0xD1B54A32D192ED03ull ^
             (index + 1) * 0x94D049BB133111EBull) {}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

int Rng::Range(int lo, int hi) {
  return lo + static_cast<int>(Next() % static_cast<uint64_t>(hi - lo + 1));
}

namespace {

constexpr uint64_t kScriptStream = 1;
constexpr uint64_t kMonitorStream = 2;

const char* const kWords[] = {"cache", "logs", "conf", "data", "tmp", "lib", "share", "run"};

// Grep pattern `j` of the workload's pool. Distinct j give distinct
// patterns, so the pool size is the PatternCache working set.
std::string Pattern(int j) {
  const std::string n = std::to_string(j / 4);
  switch (j % 4) {
    case 0:
      return "^ERR" + n;
    case 1:
      return "key" + n + "=";
    case 2:
      return "^[a-z]*" + n + "$";
    default:
      return "[0-9][0-9]*x" + n;
  }
}

class ScriptBuilder {
 public:
  ScriptBuilder(Rng* rng, const ScriptMix& mix, int index) : rng_(*rng), mix_(mix), index_(index) {}

  Script Build(bool heavy) {
    Script script;
    script.heavy = heavy;
    const bool del_root = heavy || rng_.Chance(mix_.hazard_percent);
    const bool dead_stream = rng_.Chance(mix_.hazard_percent);
    int statements = heavy ? 12 : rng_.Range(mix_.min_statements, mix_.max_statements);
    int branches = heavy ? 0 : rng_.Range(0, mix_.max_branches);
    const int del_root_at = rng_.Range(0, statements);
    const int dead_stream_at = rng_.Range(0, statements);

    out_ = "#!/bin/sh\n# generated script " + std::to_string(index_) + "\n";
    out_ += "APP=/srv/app" + std::to_string(index_) + "\n";
    vars_ = {"APP"};
    files_.clear();
    dirs_.clear();
    for (const char* ext : {".conf", ".log", ".db"}) {
      files_.push_back("\"$APP/" + std::string(Word()) + ext + "\"");
    }
    for (int i = 0; i < 2; ++i) {
      dirs_.push_back("\"$APP/" + std::string(Word()) + "\"");
    }
    // Create the working set first, so later commands see known paths.
    out_ += "mkdir -p \"$APP\" " + dirs_[0] + " " + dirs_[1] + "\n";
    for (const std::string& f : files_) {
      out_ += "echo init > " + f + "\n";
    }
    if (heavy) {
      // Eight independent unknown branches with distinct effects: 256 paths
      // against the 128-state cap, so exploration overflows and drops.
      for (int i = 0; i < 8; ++i) {
        const std::string k = std::to_string(i);
        out_ += "if grep -q key" + k + " /etc/conf" + k + "; then\n";
        out_ += "  dir" + k + "=/srv/data" + k + "\n";
        out_ += "  rm -r \"$dir" + k + "/old\"\n";
        out_ += "fi\n";
      }
    }
    const int depth = rng_.Range(0, mix_.max_depth);
    if (depth > 0) {
      Functions(depth);
    }
    for (int s = 0; s <= statements; ++s) {
      if (del_root && s == del_root_at) {
        // The Fig. 1 shape: an unset variable before "/"* deletes root.
        out_ += "rm -rf \"$UNSET" + std::to_string(index_) + "/\"*\n";
      }
      if (dead_stream && s == dead_stream_at) {
        // The Fig. 5 typo: no lsb_release line starts with "Releas:".
        out_ += "lsb_release -a | grep '^Releas:'\n";
      }
      if (s == statements) {
        break;
      }
      if (branches > 0 && rng_.Chance(20)) {
        --branches;
        Branch();
      } else {
        out_ += Statement() + "\n";
      }
    }
    if (depth > 0) {
      out_ += "fn" + std::to_string(depth) + "\n";
    }
    if (del_root) {
      script.planted.push_back(kCodeDelRoot);
    }
    if (dead_stream) {
      script.planted.push_back(kCodeDeadStream);
    }
    script.text = std::move(out_);
    return script;
  }

 private:
  const std::string& AnyVar() {
    return vars_[static_cast<size_t>(rng_.Range(0, static_cast<int>(vars_.size()) - 1))];
  }
  const char* Word() { return kWords[rng_.Range(0, 7)]; }
  std::string Fresh(const char* prefix) { return prefix + std::to_string(next_var_++); }

  // Scripts work on a small set of files and directories, as real ones do:
  // every distinct path whose existence symex cannot know forks the state,
  // so the set size bounds the paths explored.
  const std::string& File() { return files_[static_cast<size_t>(rng_.Range(0, 2))]; }
  const std::string& Dir() { return dirs_[static_cast<size_t>(rng_.Range(0, 1))]; }

  // A typed pipeline: cat, then up to one grep from the pattern pool, then
  // cut/sort/uniq. One grep at most, so no generated pipeline is dead unless
  // planted.
  std::string Pipeline() {
    std::string p = "cat " + File();
    if (rng_.Chance(70)) {
      p += std::string(rng_.Chance(20) ? " | grep -v '" : " | grep '") +
           Pattern(rng_.Range(0, mix_.pattern_pool - 1)) + "'";
    }
    if (rng_.Chance(60)) {
      p += " | cut -d: -f" + std::to_string(rng_.Range(1, 4));
    }
    if (rng_.Chance(60)) {
      p += " | sort";
    }
    if (rng_.Chance(50)) {
      p += rng_.Chance(50) ? " | uniq -c" : " | uniq";
    }
    if (rng_.Chance(30)) {
      p += " > " + File();
    }
    return p;
  }

  std::string Substitution(int depth) {
    std::string inner = "\"$" + AnyVar() + "/" + Word() + "/x\"";
    for (int d = 0; d < depth; ++d) {
      inner = std::string("\"$(") + (d % 2 == 0 ? "dirname " : "basename ") + inner + ")\"";
    }
    return inner;
  }

  std::string Statement() {
    const std::string v = AnyVar();
    switch (rng_.Range(0, 11)) {
      case 0: {
        if (in_function_) {
          return "echo \"$" + v + "/" + Word() + "\"";
        }
        std::string name = Fresh("D");
        std::string line = name + "=\"$" + v + "/" + Word() + "\"";
        vars_.push_back(name);
        return line;
      }
      case 1:
        return "mkdir -p " + Dir();
      case 2:
        return "echo \"" + std::string(Word()) + "\" > " + File();
      case 3:
        return "cat " + File();
      case 4:
        return "echo \"$" + v + "\" >> " + File();
      case 5:
      case 6:
        return Pipeline();
      case 7:
        return "for f in a b c; do\n  echo \"$f\" >> " + File() + "\ndone";
      case 8: {
        if (in_function_) {
          return "echo " + Substitution(rng_.Range(1, std::max(1, mix_.max_depth)));
        }
        std::string name = Fresh("N");
        std::string line = name + "=" + Substitution(rng_.Range(1, std::max(1, mix_.max_depth)));
        vars_.push_back(name);
        return line;
      }
      case 9:
        return "rm -f " + File() + " && echo init > " + File();
      case 10:
        return "echo \"step " + std::to_string(next_var_++) + ": $" + v + "\"";
      default:
        // Not dead: both patterns accept the empty line.
        return "cat " + File() + " | grep '^[0-9]*$' | grep '^[a-z]*$'";
    }
  }

  void Branch() {
    const std::string name = Fresh("B");
    out_ += "if grep -q '" + Pattern(rng_.Range(0, mix_.pattern_pool - 1)) + "' " + File() +
            "; then\n";
    out_ += "  " + name + "=\"$APP/" + Word() + "\"\n";
    out_ += "  echo \"$" + name + "\"\n";
    out_ += "fi\n";
  }

  // fn1 .. fn<depth>, each calling the one below: the call-depth axis.
  void Functions(int depth) {
    // Variables assigned inside a function exist only once it runs, so
    // function bodies assign none.
    in_function_ = true;
    for (int d = 1; d <= depth; ++d) {
      out_ += "fn" + std::to_string(d) + "() {\n";
      out_ += "  " + Statement() + "\n";
      if (d > 1) {
        out_ += "  fn" + std::to_string(d - 1) + "\n";
      }
      out_ += "}\n";
    }
    in_function_ = false;
  }

  Rng& rng_;
  const ScriptMix& mix_;
  int index_;
  std::string out_;
  std::vector<std::string> vars_;
  std::vector<std::string> files_;
  std::vector<std::string> dirs_;
  int next_var_ = 0;
  bool in_function_ = false;
};

bool Contains(const std::vector<std::string>& codes, const std::string& code) {
  return std::find(codes.begin(), codes.end(), code) != codes.end();
}

}  // namespace

Script GenerateScript(uint64_t seed, int index, const ScriptMix& mix) {
  const bool heavy = mix.heavy_per_mille > 0 &&
                     index % (1000 / mix.heavy_per_mille) == 1000 / mix.heavy_per_mille - 1;
  // Heavy scripts share one body (only the names differ), so every corpus's
  // tail costs the same and the p99 does not depend on the seed.
  Rng rng(heavy ? 0 : seed, kScriptStream, heavy ? 0 : static_cast<uint64_t>(index) + 1);
  Script script = ScriptBuilder(&rng, mix, index).Build(heavy);
  char name[32];
  std::snprintf(name, sizeof(name), "s%05d.sh", index);
  script.name = name;
  return script;
}

std::vector<Script> GenerateScripts(uint64_t seed, int count, const ScriptMix& mix) {
  std::vector<Script> out;
  out.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    out.push_back(GenerateScript(seed, i, mix));
  }
  return out;
}

std::string CheckReport(const Script& script, const Json& report) {
  if (!report.IsObject() || report.Get("findings") == nullptr) {
    return script.name + ": not a sash-analysis-v1 report";
  }
  std::vector<std::string> codes = FindingCodes(report);
  for (const std::string& code : script.planted) {
    if (!Contains(codes, code)) {
      return script.name + ": planted " + code + " not reported";
    }
  }
  for (const char* code : {kCodeDelRoot, kCodeDeadStream}) {
    if (Contains(codes, code) && !Contains(script.planted, code)) {
      return script.name + ": " + code + " reported but not planted";
    }
  }
  const Json* degraded = report.Get("degraded");
  if (!script.heavy && degraded != nullptr && degraded->boolean) {
    return script.name + ": degraded without reaching any exploration cap by design";
  }
  return "";
}

std::vector<MonitorCase> GenerateMonitorCases(uint64_t seed, int inputs, int lines_per_input) {
  // Pipelines over "id,name,value,tag" lines. `numeric` is the stage index
  // of the cut feeding `sort -n`, i.e. the boundary whose type a non-numeric
  // field violates; -1 when the pipeline has no such boundary.
  struct Template {
    const char* text;  // %s is the input path.
    int numeric;
    int field;         // 1-based CSV field the planted value replaces.
  };
  static const Template kTemplates[] = {
      {"cat %s | grep ',ok$' | cut -d, -f3 | sort -n | uniq -c", 2, 3},
      {"cat %s | cut -d, -f3 | sort -n | uniq", 1, 3},
      {"cat %s | grep -v ',err$' | cut -d, -f3 | sort -n", 2, 3},
      {"cat %s | grep 'alpha' | cut -d, -f1 | sort -n | uniq", 2, 1},
      {"cat %s | cut -d, -f2 | sort | uniq -c", -1, 0},
  };
  static const char* const kNames[] = {"alpha", "beta", "gamma", "delta"};
  static const char* const kTags[] = {"ok", "ok", "warn", "err"};
  // Templates go round-robin, and every tenth input (always one of the
  // first template) carries a planted line three quarters of the way in, so
  // every seed has the same mix of work and only the data differs. Run
  // times cluster by template; a mix that moved with the seed would move
  // the median from one cluster to another.
  const int kTemplateCount = 5;
  const int kPlantedStride = 10;

  std::vector<MonitorCase> cases;
  for (int i = 0; i < inputs; ++i) {
    Rng rng(seed, kMonitorStream, static_cast<uint64_t>(i));
    MonitorCase c;
    c.path = "/data/in" + std::to_string(i) + ".csv";
    c.planted = i % kPlantedStride == 0;
    const Template& t = kTemplates[i % kTemplateCount];
    char pipeline[128];
    std::snprintf(pipeline, sizeof(pipeline), t.text, c.path.c_str());
    c.pipeline = pipeline;
    const int planted_at = c.planted ? lines_per_input * 3 / 4 : -1;
    for (int l = 0; l < lines_per_input; ++l) {
      std::string id = std::to_string(rng.Range(1, 99999));
      std::string name = std::string(kNames[rng.Range(0, 3)]) + std::to_string(rng.Range(0, 99));
      std::string value = std::to_string(rng.Range(0, 999999));
      std::string tag = kTags[rng.Range(0, 3)];
      if (l == planted_at) {
        // Passes every filter before the numeric boundary, then breaks it.
        name = "alpha" + name;
        tag = "ok";
        c.violating_line = "n/a";
        (t.field == 1 ? id : value) = c.violating_line;
        c.boundary = t.numeric;
      }
      c.data += id + "," + name + "," + value + "," + tag + "\n";
    }
    cases.push_back(std::move(c));
  }
  return cases;
}

}  // namespace perfbench
