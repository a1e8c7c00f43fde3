// A concrete POSIX-sh interpreter over the in-memory FileSystem and the
// exec command models. This is the execution substrate the runtime monitor
// (§3 insight 3) instruments: it runs real scripts — pipelines, control flow,
// expansions, globbing, redirections — entirely in the sandbox.
#ifndef SASH_MONITOR_INTERP_H_
#define SASH_MONITOR_INTERP_H_

#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "exec/commands.h"
#include "fs/filesystem.h"
#include "obs/metrics.h"
#include "syntax/ast.h"
#include "util/cancel.h"

namespace sash::monitor {

struct InterpOptions {
  exec::World world;                       // lsb_release / curl configuration.
  std::vector<std::string> args;           // $1.., with $0 in `script_name`.
  std::string script_name = "script.sh";
  std::string stdin_data;
  int max_steps = 100000;                  // Command-execution budget.
  // Optional observability: per-command guard-check latency and command
  // counts land here as "monitor.*" instruments.
  obs::Registry* metrics = nullptr;
  // Optional cooperative cancellation: polled once per interpreted command;
  // expiry aborts the run with a "sash-monitor:" reason on stderr.
  util::CancelToken* cancel = nullptr;
};

struct InterpResult {
  int exit_code = 0;
  std::string out;
  std::string err;
  bool budget_exceeded = false;
  int steps = 0;
};

class Interpreter {
 public:
  // Hooks for the monitor: called before every external command with its
  // argv and, for each argv[i], the field it came from before pathname
  // expansion (`pre_glob[i]`: "/*" for every entry `"$d/"*` globbed to when
  // d is empty). Returning false aborts execution (the monitor "halting the
  // execution of a script about to perform a dangerous action").
  using CommandHook = std::function<bool(const std::vector<std::string>& argv,
                                         const std::vector<std::string>& pre_glob,
                                         std::string* abort_reason)>;
  // Called once per pipe boundary with everything the producing stage wrote:
  // (stage_index, output). Returning false aborts with a stream-type
  // violation.
  using BoundaryHook = std::function<bool(int stage, std::string_view output,
                                          std::string* abort_reason)>;

  Interpreter(fs::FileSystem* fs, InterpOptions options);

  void set_command_hook(CommandHook hook) { command_hook_ = std::move(hook); }
  void set_pipe_boundary_hook(BoundaryHook hook) { pipe_boundary_hook_ = std::move(hook); }

  // Starts a fresh interposition trace: afterwards fs->trace() holds exactly
  // this run's file-system interactions, so a file system shared by many
  // runs does not grow with their number.
  InterpResult Run(const syntax::Program& program);

  // Variable store access (for tests).
  const std::map<std::string, std::string>& vars() const { return vars_; }

 private:
  // Cheap to copy: stdin is a view of data owned up the call chain (the
  // options, a pipeline's previous stage, a redirect or a heredoc body).
  struct ExecContext {
    std::string_view stdin_data;
    std::string* out = nullptr;  // Capture target (pipes/substitutions).
  };

  int ExecProgram(const syntax::Program& program, ExecContext ctx);
  int ExecCommand(const syntax::Command& cmd, ExecContext ctx);
  int ExecSimple(const syntax::Command& cmd, ExecContext ctx);
  int ExecPipeline(const syntax::Command& cmd, ExecContext ctx);
  int ExecList(const syntax::Command& cmd, ExecContext ctx);

  // Expansion: a word yields zero or more fields. When `pre_glob` is given,
  // each field's text before pathname expansion is appended to it.
  std::vector<std::string> ExpandWord(const syntax::Word& word,
                                      std::vector<std::string>* pre_glob = nullptr);
  std::string ExpandParts(const std::vector<syntax::WordPart>& parts);
  std::string ExpandParam(const syntax::WordPart& part);
  std::string LookupVar(const std::string& name) const;
  long EvalArith(const std::string& expr);

  int RunTestBuiltin(const std::vector<std::string>& args);
  void Emit(const ExecContext& ctx, std::string text);
  void EmitErr(const std::string& text);

  // Runs the command hook (if any) with guard-check latency recorded.
  bool InvokeGuard(const std::vector<std::string>& argv, const std::vector<std::string>& pre_glob,
                   std::string* reason);

  fs::FileSystem* fs_;
  InterpOptions options_;
  std::map<std::string, std::string> vars_;
  std::map<std::string, const syntax::Command*> functions_;
  CommandHook command_hook_;
  BoundaryHook pipe_boundary_hook_;
  // Cached instruments (null when options_.metrics is null).
  obs::Counter* commands_counter_ = nullptr;
  obs::Counter* guard_blocks_counter_ = nullptr;
  obs::Histogram* guard_latency_ns_ = nullptr;
  std::string out_;
  std::string err_;
  int last_exit_ = 0;
  int steps_ = 0;
  bool aborted_ = false;
  bool exited_ = false;
  std::string abort_reason_;
};

}  // namespace sash::monitor

#endif  // SASH_MONITOR_INTERP_H_
