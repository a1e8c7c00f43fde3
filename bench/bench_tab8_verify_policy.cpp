// Experiment T8 (§5 security): curl ... | verify --no-RW ~/mine | sh.
// A benign installer and five attack variants under the policy verifier:
// symex's static detection wherever it can derive a path, runtime guarding
// otherwise. Fig. 1 and `rm -rf /*` need no policy: root deletion is always
// refused.
#include "bench_util.h"
#include "monitor/guard.h"
#include "syntax/parser.h"

namespace {

struct Installer {
  const char* name;
  const char* script;
  bool malicious;
};

const Installer kInstallers[] = {
    {"benign",
     "mkdir -p /opt/app\necho payload > /opt/app/bin\necho installed\n", false},
    {"static-write-attack",
     "mkdir -p /opt/app\necho harvest > /home/user/mine/wallet\n", true},
    {"dynamic-path-attack",
     "t=$(echo /home/user/mine)\nrm -rf \"$t\"\n", true},
    {"read-exfiltration",
     "cat /home/user/mine/secret.key\n", true},
    {"fig1-steam-updater",
     "STEAMROOT=\"$(cd \"${0%/*}\" && echo \"$PWD\")\"\nrm -rf \"$STEAMROOT/\"*\n", true},
    {"root-glob",
     "rm -rf /*\n", true},
};

void PrintResult() {
  std::vector<std::vector<std::string>> rows;
  rows.push_back(
      {"installer", "static findings", "runtime guard", "data intact", "verdict correct"});
  for (const Installer& inst : kInstallers) {
    sash::syntax::ParseOutput parsed = sash::syntax::Parse(inst.script);
    sash::symex::EffectPolicy policy;
    policy.no_write = {"/home/user/mine"};
    policy.no_read = {"/home/user/mine"};
    sash::fs::FileSystem fs;
    fs.MakeDir("/home/user/mine", true);
    fs.WriteFile("/home/user/mine/secret.key", "hunter2");
    fs.MakeDir("/opt", false);
    sash::monitor::VerifyReport report = sash::monitor::Verify(
        parsed.program, policy, &fs, sash::monitor::InterpOptions{}, /*execute=*/true);
    bool intact = fs.IsFile("/home/user/mine/secret.key");
    bool caught = !report.static_findings.empty() || report.blocked;
    rows.push_back({inst.name, std::to_string(report.static_findings.size()),
                    report.blocked ? "BLOCKED" : "allowed", intact ? "yes" : "NO",
                    caught == inst.malicious && intact ? "✓" : "✗"});
  }
  sash::bench::PrintTable(
      "T8: verify --no-RW ~/mine on curl-to-sh installers "
      "(expected: benign runs, every attack is caught, data always intact)",
      rows);
}

// verify's static half (a symex run with the policy) on the static-write
// attack; the script is not executed.
void BM_VerifyStaticOnly(benchmark::State& state) {
  sash::syntax::ParseOutput parsed = sash::syntax::Parse(kInstallers[1].script);
  sash::symex::EffectPolicy policy;
  policy.no_write = {"/home/user/mine"};
  sash::fs::FileSystem fs;
  for (auto _ : state) {
    sash::monitor::VerifyReport report = sash::monitor::Verify(
        parsed.program, policy, &fs, sash::monitor::InterpOptions{}, /*execute=*/false);
    benchmark::DoNotOptimize(report.static_findings.size());
  }
}
BENCHMARK(BM_VerifyStaticOnly)->Unit(benchmark::kMicrosecond);

void BM_VerifyGuardedRun(benchmark::State& state) {
  sash::syntax::ParseOutput parsed = sash::syntax::Parse(kInstallers[0].script);
  sash::symex::EffectPolicy policy;
  policy.no_write = {"/home/user/mine"};
  for (auto _ : state) {
    sash::fs::FileSystem fs;
    fs.MakeDir("/home/user/mine", true);
    fs.MakeDir("/opt", false);
    sash::monitor::VerifyReport report = sash::monitor::Verify(
        parsed.program, policy, &fs, sash::monitor::InterpOptions{}, /*execute=*/true);
    benchmark::DoNotOptimize(report.blocked);
  }
}
BENCHMARK(BM_VerifyGuardedRun)->Unit(benchmark::kMicrosecond);

}  // namespace

SASH_BENCH_MAIN(PrintResult)
