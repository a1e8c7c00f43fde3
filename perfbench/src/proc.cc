#include "proc.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

extern char** environ;

namespace perfbench {

namespace {

std::vector<std::string> ChildEnvironment() {
  std::vector<std::string> env;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "SASH_", 5) != 0) {
      env.emplace_back(*e);
    }
  }
  return env;
}

std::vector<char*> CStrings(std::vector<std::string>& strings) {
  std::vector<char*> out;
  for (std::string& s : strings) {
    out.push_back(s.data());
  }
  out.push_back(nullptr);
  return out;
}

double RusageCpuMs(const struct rusage& ru) {
  return (ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e3 +
         (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e3;
}

int ExitCodeOf(int status) { return WIFEXITED(status) ? WEXITSTATUS(status) : -1; }

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ProcResult RunProcess(const std::vector<std::string>& argv, bool capture_stdout) {
  ProcResult result;
  std::vector<std::string> args = argv;
  std::vector<std::string> env = ChildEnvironment();
  std::vector<char*> c_args = CStrings(args);
  std::vector<char*> c_env = CStrings(env);

  int pipe_fds[2] = {-1, -1};
  if (capture_stdout && pipe2(pipe_fds, O_CLOEXEC) != 0) {
    return result;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  if (capture_stdout) {
    posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], 1);
  } else {
    posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
  }
  posix_spawn_file_actions_addopen(&actions, 2, "/dev/null", O_WRONLY, 0);

  pid_t pid = -1;
  const int64_t start = NowNs();
  int rc = posix_spawn(&pid, c_args[0], &actions, nullptr, c_args.data(), c_env.data());
  posix_spawn_file_actions_destroy(&actions);
  if (capture_stdout) {
    close(pipe_fds[1]);
  }
  if (rc != 0) {
    if (capture_stdout) {
      close(pipe_fds[0]);
    }
    return result;
  }
  result.spawned = true;
  if (capture_stdout) {
    char buf[65536];
    while (true) {
      ssize_t n = read(pipe_fds[0], buf, sizeof(buf));
      if (n > 0) {
        result.out.append(buf, static_cast<size_t>(n));
      } else if (n == 0 || errno != EINTR) {
        break;
      }
    }
    close(pipe_fds[0]);
  }
  int status = 0;
  struct rusage ru {};
  while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  result.wall_ns = NowNs() - start;
  result.exit_code = ExitCodeOf(status);
  result.cpu_ms = RusageCpuMs(ru);
  result.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return result;
}

Daemon::~Daemon() {
  if (pid_ > 0) {
    Stop(2000, nullptr);
  }
}

bool Daemon::Start(const std::vector<std::string>& argv, const std::string& log_path) {
  std::vector<std::string> args = argv;
  std::vector<std::string> env = ChildEnvironment();
  std::vector<char*> c_args = CStrings(args);
  std::vector<char*> c_env = CStrings(env);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, 1, log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                                   0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  int rc = posix_spawn(&pid_, c_args[0], &actions, nullptr, c_args.data(), c_env.data());
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    pid_ = -1;
    return false;
  }
  return true;
}

double Daemon::CpuMs() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  // Fields after the parenthesized command name; utime and stime are the
  // 14th and 15th fields overall.
  size_t close_paren = stat.rfind(')');
  if (close_paren == std::string::npos) {
    return 0;
  }
  std::istringstream fields(stat.substr(close_paren + 2));
  std::string field;
  double utime = 0;
  double stime = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) {
      utime = std::stod(field);
    } else if (i == 15) {
      stime = std::stod(field);
    }
  }
  return (utime + stime) * 1e3 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

bool Daemon::CatchesSigterm() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("SigCgt:", 0) == 0) {
      const uint64_t caught = std::stoull(line.substr(7), nullptr, 16);
      return (caught >> (SIGTERM - 1)) & 1;
    }
  }
  return false;
}

int Daemon::Stop(int64_t grace_ms, double* maxrss_mb) {
  if (pid_ <= 0) {
    return -1;
  }
  kill(pid_, SIGTERM);
  int status = 0;
  struct rusage ru {};
  const int64_t deadline = NowNs() + grace_ms * 1000000;
  pid_t done = 0;
  while ((done = wait4(pid_, &status, WNOHANG, &ru)) == 0 && NowNs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (done == 0) {
    kill(pid_, SIGKILL);
    while (wait4(pid_, &status, 0, &ru) < 0 && errno == EINTR) {
    }
  }
  pid_ = -1;
  if (maxrss_mb != nullptr) {
    *maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  }
  return ExitCodeOf(status);
}

cpu_set_t Affinity() {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  sched_getaffinity(0, sizeof(cpus), &cpus);
  return cpus;
}

void SetAffinity(const cpu_set_t& cpus) { sched_setaffinity(0, sizeof(cpus), &cpus); }

cpu_set_t LastCpusOf(const cpu_set_t& cpus, int count) {
  cpu_set_t last;
  CPU_ZERO(&last);
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && CPU_COUNT(&last) < count; --cpu) {
    if (CPU_ISSET(cpu, &cpus)) {
      CPU_SET(cpu, &last);
    }
  }
  return last;
}

double PeakRssMb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0;
}

}  // namespace perfbench
