#include "mining/pipeline.h"

#include "mining/man_corpus.h"
#include "mining/prober.h"

namespace sash::mining {

MiningOutcome MineCommand(const std::string& name, obs::EventJournal* journal) {
  obs::Span mine_span(journal, "mine");
  MiningOutcome out;
  out.command = name;
  const auto& corpus = ManCorpus();
  auto it = corpus.find(name);
  if (it == corpus.end()) {
    out.error = "no documentation for '" + name + "'";
    return out;
  }
  {
    obs::Span span(journal, "doc-mine");
    DocMiner miner;
    Result<specs::SyntaxSpec> syntax = miner.MineSyntax(it->second);
    if (!syntax.ok()) {
      out.error = syntax.status().ToString();
      return out;
    }
    out.syntax = *syntax;
  }

  std::vector<ProbeRecord> records;
  {
    obs::Span span(journal, "probe");
    ProbePlan plan = EnumerateProbes(out.syntax);
    out.invocations = static_cast<int>(plan.invocations.size());
    out.environments = static_cast<int>(plan.environments.size());
    records = RunProbes(plan);
    out.probes = static_cast<int>(records.size());
  }
  {
    obs::Span span(journal, "compile");
    out.spec = CompileSpec(out.syntax, records);
    out.cases = static_cast<int>(out.spec.cases.size());
  }

  const specs::CommandSpec* truth = specs::SpecLibrary::BuiltinGroundTruth().Find(name);
  if (truth != nullptr) {
    out.validation = CompareBehavior(out.spec, *truth);
  }
  out.ok = true;
  return out;
}

std::vector<MiningOutcome> MineAll(obs::EventJournal* journal) {
  std::vector<MiningOutcome> out;
  for (const std::string& name : DocumentedCommands()) {
    out.push_back(MineCommand(name, journal));
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
