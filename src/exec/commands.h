// Concrete, executable models of the core Unix utilities, operating on the
// in-memory FileSystem and string-based standard streams. These stand in for
// the real binaries in two places:
//   - the Fig. 4 prober executes them under interposition to *observe* their
//     effects and compile specifications;
//   - the runtime monitor executes guarded pipelines with them.
// Behavior follows POSIX for the modeled flag subset; exit codes match the
// ground-truth specification library.
#ifndef SASH_EXEC_COMMANDS_H_
#define SASH_EXEC_COMMANDS_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "fs/filesystem.h"

namespace sash::exec {

struct RunResult {
  int exit_code = 0;
  std::string out;  // Standard output.
  std::string err;  // Standard error.
};

// Configuration injected into command models that would otherwise reach
// outside the sandbox.
struct World {
  // lsb_release output fields.
  std::string distributor_id = "Debian";
  std::string description = "Debian GNU/Linux 12 (bookworm)";
  std::string release = "12";
  std::string codename = "bookworm";
  // curl's view of the network: url -> body ("" + missing = exit 6).
  std::map<std::string, std::string> remote;
};

// Executes `argv` (argv[0] is the command name) with `stdin_data` against
// `fs`. Unknown commands return exit 127 with a shell-style error. Line
// filters read their input as views into `stdin_data` (or the files they
// name) and append straight into RunResult::out.
RunResult RunCommand(fs::FileSystem& fs, const std::vector<std::string>& argv,
                     std::string_view stdin_data = {}, const World& world = World());

// True when a model exists for `name`.
bool HasCommand(const std::string& name);

// Names of all modeled commands (sorted).
std::vector<std::string> CommandNames();

}  // namespace sash::exec

#endif  // SASH_EXEC_COMMANDS_H_
