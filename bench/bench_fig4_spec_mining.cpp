// Experiment F4 (paper Fig. 4): the specification-inference pipeline —
// docs -> guardrailed syntax -> invocation sweep -> instrumented probing ->
// compiled Hoare triples — per command, with behavioral agreement against
// ground truth.
#include "bench_util.h"
#include "mining/man_corpus.h"
#include "mining/pipeline.h"
#include "mining/prober.h"

namespace {

void PrintResult() {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"command", "invocations", "environments", "probes", "cases", "agreement"});
  int total_probes = 0;
  int total_cases = 0;
  int mined = 0;
  int failures = 0;
  for (const sash::mining::MiningOutcome& o : sash::mining::MineAll()) {
    if (!o.ok) {
      ++failures;
      rows.push_back({o.command, "-", "-", "-", "-", "FAILED: " + o.error});
      continue;
    }
    ++mined;
    total_cases += o.cases;
    char pct[16];
    std::snprintf(pct, sizeof(pct), "%.1f%%", 100.0 * o.validation.Agreement());
    rows.push_back({o.command, std::to_string(o.invocations), std::to_string(o.environments),
                    std::to_string(o.probes), std::to_string(o.cases), pct});
    total_probes += o.probes;
  }
  rows.push_back({"total", "", "", std::to_string(total_probes), "", ""});
  sash::bench::PrintTable("F4: Fig. 4 spec inference (docs -> probes -> Hoare triples)", rows);
  sash::bench::Metric("mining.commands_mined", mined);
  sash::bench::Metric("mining.failures", failures);
  sash::bench::Metric("mining.probes", total_probes);
  sash::bench::Metric("mining.cases", total_cases);

  // The paper's worked example rendered from the *mined* spec.
  sash::mining::MiningOutcome rm = sash::mining::MineCommand("rm");
  sash::specs::Invocation inv;
  inv.command = "rm";
  inv.flags = {'f', 'r'};
  inv.operands = {"$p"};
  const sash::specs::SpecCase* c = rm.spec.MatchCase(inv, {sash::specs::PathState::kIsDir});
  std::printf("mined triple for the paper's example (rm -f -r on an extant directory):\n  %s\n",
              c != nullptr ? c->ToHoareString("rm").c_str() : "(missing!)");
}

void BM_MineRmEndToEnd(benchmark::State& state) {
  for (auto _ : state) {
    sash::mining::MiningOutcome o = sash::mining::MineCommand("rm");
    benchmark::DoNotOptimize(o.cases);
  }
}
BENCHMARK(BM_MineRmEndToEnd)->Unit(benchmark::kMillisecond);

void BM_MineSyntaxOnly(benchmark::State& state) {
  sash::mining::DocMiner miner;
  const std::string& man = sash::mining::ManCorpus().at("rm");
  for (auto _ : state) {
    auto spec = miner.MineSyntax(man);
    benchmark::DoNotOptimize(spec.ok());
  }
}
BENCHMARK(BM_MineSyntaxOnly)->Unit(benchmark::kMicrosecond);

void BM_ProbeSweep(benchmark::State& state) {
  sash::mining::DocMiner miner;
  auto spec = miner.MineSyntax(sash::mining::ManCorpus().at("rm"));
  sash::mining::ProbePlan plan = sash::mining::EnumerateProbes(*spec);
  for (auto _ : state) {
    auto records = sash::mining::RunProbes(plan);
    benchmark::DoNotOptimize(records.size());
  }
}
BENCHMARK(BM_ProbeSweep)->Unit(benchmark::kMillisecond);

}  // namespace

SASH_BENCH_MAIN(PrintResult)
