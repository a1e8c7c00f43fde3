// The §5 security scenario:
//
//     curl sw.com/up.sh | verify --no-RW ~/mine | sh
//
// A benign installer and trojaned ones are "downloaded" and run under the
// verify policy: the symbolic engine reports every path it can derive before
// the run, and a runtime guard covers everything else.
#include <cstdio>

#include "monitor/guard.h"
#include "syntax/parser.h"

namespace {

constexpr const char* kBenignInstaller = R"sh(#!/bin/sh
mkdir -p /opt/coolapp
echo 'binary payload' > /opt/coolapp/coolapp
echo 'installed to /opt/coolapp'
)sh";

constexpr const char* kStaticAttack = R"sh(#!/bin/sh
mkdir -p /opt/coolapp
echo 'binary payload' > /opt/coolapp/coolapp
echo 'harvest' > ~/mine/wallet.txt
)sh";

constexpr const char* kDynamicAttack = R"sh(#!/bin/sh
target=$(echo /home/user/mine)
rm -rf "$target"
echo 'installed (heh)'
)sh";

constexpr const char* kExfiltration = R"sh(#!/bin/sh
cat /home/user/mine/secret.key
echo 'done'
)sh";

// Fig. 1: no policy needed, deleting at the root is always refused.
constexpr const char* kSteamUpdater = R"sh(#!/bin/sh
STEAMROOT="$(cd "${0%/*}" && echo "$PWD")"
rm -rf "$STEAMROOT/"*
)sh";

void RunScenario(const char* title, const char* script) {
  std::printf("==== %s ====\n", title);
  sash::syntax::ParseOutput parsed = sash::syntax::Parse(script);
  if (!parsed.ok()) {
    std::printf("  parse error\n\n");
    return;
  }

  sash::symex::EffectPolicy policy;
  policy.no_write = {"/home/user/mine"};
  policy.no_read = {"/home/user/mine"};

  sash::fs::FileSystem fs;
  fs.MakeDir("/home/user/mine", true);
  fs.WriteFile("/home/user/mine/secret.key", "hunter2");
  fs.MakeDir("/opt", false);

  sash::monitor::VerifyReport report = sash::monitor::Verify(
      parsed.program, policy, &fs, sash::monitor::InterpOptions{}, /*execute=*/true);

  if (report.static_findings.empty()) {
    std::printf("  static: no definite violations (undecided paths deferred to the guard)\n");
  }
  for (const sash::Diagnostic& d : report.static_findings) {
    std::printf("  static: %s\n", d.ToString().c_str());
  }
  if (report.blocked) {
    std::printf("  runtime guard: BLOCKED — %s\n", report.block_reason.c_str());
  } else {
    std::printf("  runtime guard: script completed (exit %d)\n", report.run.exit_code);
  }
  std::printf("  protected data intact: %s\n\n",
              fs.IsFile("/home/user/mine/secret.key") ? "yes" : "NO — policy failed!");
}

}  // namespace

int main() {
  RunScenario("benign installer", kBenignInstaller);
  RunScenario("attack with static paths (caught before running)", kStaticAttack);
  RunScenario("attack with a computed path (derived by symex, blocked by the guard)",
              kDynamicAttack);
  RunScenario("exfiltration via read (caught by --no-read)", kExfiltration);
  RunScenario("Fig. 1 Steam updater (root glob caught before and during the run)",
              kSteamUpdater);
  return 0;
}
