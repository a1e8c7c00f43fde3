// The effect guard and the `verify` tool (§5 security):
//
//   curl sw.com/up.sh | verify --no-RW ~/mine | sh
//
// Verify checks a script against a user policy: statically with the
// symbolic engine, and by generating a runtime guard that halts execution
// the moment a command is about to violate the policy or delete at the
// root. Both halves judge root deletion by symex::DangerLanguage().
#ifndef SASH_MONITOR_GUARD_H_
#define SASH_MONITOR_GUARD_H_

#include <string>
#include <vector>

#include "monitor/interp.h"
#include "symex/engine.h"
#include "syntax/ast.h"
#include "util/diagnostics.h"

namespace sash::monitor {

// Full verify: symex's static findings plus a run under a guard that
// blocks, before the command runs, any policy violation and any delete
// whose word before pathname expansion is in symex::DangerLanguage(). When
// `execute` is false (static-only), the script is not run.
struct VerifyReport {
  // Every kCodeDeleteRoot error, and the kCodePolicy errors (paths that must
  // violate the policy); may-level policy warnings are left to the guard.
  std::vector<Diagnostic> static_findings;
  bool executed = false;
  bool blocked = false;        // The runtime guard halted the script.
  std::string block_reason;
  InterpResult run;
};

VerifyReport Verify(const syntax::Program& program, const symex::EffectPolicy& policy,
                    fs::FileSystem* fs, InterpOptions options, bool execute);

}  // namespace sash::monitor

#endif  // SASH_MONITOR_GUARD_H_
