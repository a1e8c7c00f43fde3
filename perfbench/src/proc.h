// Child processes as the benchmark sees them: spawn → exit wall time, and the
// child's own CPU time and peak RSS from wait4(2).
#ifndef PERFBENCH_PROC_H_
#define PERFBENCH_PROC_H_

#include <sched.h>
#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

int64_t NowNs();

struct ProcResult {
  bool spawned = false;
  int exit_code = -1;      // -1 when the child did not exit normally.
  int64_t wall_ns = 0;     // posix_spawn → wait4 return.
  double cpu_ms = 0;       // User + system CPU of the child.
  double maxrss_mb = 0;    // Peak RSS of the child.
  std::string out;         // Captured stdout (when requested).
};

// Runs `argv` to completion with stdin and stderr on /dev/null and stdout
// captured (or discarded). SASH_* variables are removed from the child's
// environment so an ambient fault plan or cache override cannot leak in.
ProcResult RunProcess(const std::vector<std::string>& argv, bool capture_stdout);

// Peak RSS so far, in MiB (VmHWM), of process `pid` ("self" for this one).
double PeakRssMb(const std::string& pid);

// A long-running child (the serve daemon): stdout/stderr go to `log_path`.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool Start(const std::vector<std::string>& argv, const std::string& log_path);
  pid_t pid() const { return pid_; }
  // User + system CPU the child has used so far (from /proc).
  double CpuMs() const;
  double PeakRssMb() const { return perfbench::PeakRssMb(std::to_string(pid_)); }
  // True once the child has installed a SIGTERM handler (SigCgt in /proc),
  // so a SIGTERM drains it instead of killing it.
  bool CatchesSigterm() const;
  // SIGTERM, then waits for exit; escalates to SIGKILL after `grace_ms`.
  // Returns the exit code (-1 when killed by a signal) and fills peak RSS.
  int Stop(int64_t grace_ms, double* maxrss_mb);

 private:
  pid_t pid_ = -1;
};

// The calling thread's CPU affinity, and setting it; threads and children it
// starts afterwards inherit it.
cpu_set_t Affinity();
void SetAffinity(const cpu_set_t& cpus);
// The `count` highest-numbered CPUs of `cpus` (all of them when fewer).
cpu_set_t LastCpusOf(const cpu_set_t& cpus, int count);

}  // namespace perfbench

#endif  // PERFBENCH_PROC_H_
