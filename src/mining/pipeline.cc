#include "mining/pipeline.h"

#include "mining/man_corpus.h"
#include "mining/prober.h"

namespace sash::mining {

MiningOutcome MineCommand(const std::string& name, const obs::Hooks& hooks) {
  obs::Span mine_span(hooks.journal, "mine");
  MiningOutcome out;
  out.command = name;
  const auto& corpus = ManCorpus();
  auto it = corpus.find(name);
  if (it == corpus.end()) {
    out.error = "no documentation for '" + name + "'";
    if (hooks.metrics != nullptr) {
      hooks.metrics->counter("mining.failures")->Add(1);
    }
    return out;
  }
  {
    obs::Span span(hooks.journal, "doc-mine");
    DocMiner miner;
    Result<specs::SyntaxSpec> syntax = miner.MineSyntax(it->second);
    if (!syntax.ok()) {
      out.error = syntax.status().ToString();
      if (hooks.metrics != nullptr) {
        hooks.metrics->counter("mining.failures")->Add(1);
      }
      return out;
    }
    out.syntax = *syntax;
  }

  std::vector<ProbeRecord> records;
  {
    obs::Span span(hooks.journal, "probe");
    ProbePlan plan = EnumerateProbes(out.syntax);
    out.invocations = static_cast<int>(plan.invocations.size());
    out.environments = static_cast<int>(plan.environments.size());
    records = RunProbes(plan);
    out.probes = static_cast<int>(records.size());
  }
  {
    obs::Span span(hooks.journal, "compile");
    out.spec = CompileSpec(out.syntax, records);
    out.cases = static_cast<int>(out.spec.cases.size());
  }

  const specs::CommandSpec* truth = specs::SpecLibrary::BuiltinGroundTruth().Find(name);
  if (truth != nullptr) {
    out.validation = CompareBehavior(out.spec, *truth);
  }
  out.ok = true;
  if (hooks.metrics != nullptr) {
    hooks.metrics->counter("mining.commands_mined")->Add(1);
    hooks.metrics->counter("mining.probes")->Add(out.probes);
    hooks.metrics->counter("mining.cases")->Add(out.cases);
  }
  return out;
}

std::vector<MiningOutcome> MineAll(const obs::Hooks& hooks) {
  std::vector<MiningOutcome> out;
  for (const std::string& name : DocumentedCommands()) {
    out.push_back(MineCommand(name, hooks));
  }
  return out;
}

specs::SpecLibrary MinedLibrary() {
  specs::SpecLibrary lib;
  for (MiningOutcome& outcome : MineAll()) {
    if (outcome.ok) {
      lib.Register(std::move(outcome.spec));
    }
  }
  return lib;
}

}  // namespace sash::mining
