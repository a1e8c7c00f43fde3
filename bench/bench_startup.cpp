// Experiment S0 (§4): what one just-in-time invocation costs as a user sees
// it, from exec to exit. Four commands run interleaved, round after round,
// so machine drift lands on all of them alike: /bin/true (the floor any
// process pays), `sash version` (process start and init, no work), a warm
// `sash analyze` of the steam script (one hash plus one cache read), and a
// cold `sash analyze --no-cache` of the same script. The table reports the
// median of each.
//
// Floors (bench/baseline.json): `sash version` costs at most /bin/true +
// 0.3 ms, and a warm hit at most `sash version` + 0.3 ms. They hold only for
// the static sash that a plain build links; sanitizer builds link sash
// dynamically, so there the floors report a pass with startup.valid = 0.
#include <errno.h>
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.h"

extern char** environ;

namespace {

namespace fs = std::filesystem;

constexpr int kRounds = 200;
constexpr int64_t kVersionOverTrueUs = 300;
constexpr int64_t kWarmOverVersionUs = 300;

struct Command {
  const char* label;
  std::vector<std::string> argv;
  int expected_exit;
  std::vector<int64_t> micros;
};

// Spawns argv with stdout and stderr on /dev/null and waits for it. Returns
// the wall time from spawn to reap in microseconds, or -1 when the command
// could not run or exited with anything but `expected_exit`.
int64_t TimeOnce(const std::vector<std::string>& argv, int expected_exit) {
  std::vector<char*> args;
  for (const std::string& a : argv) {
    args.push_back(const_cast<char*>(a.c_str()));
  }
  args.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null", O_WRONLY, 0);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, "/dev/null", O_WRONLY, 0);
  auto start = std::chrono::steady_clock::now();
  pid_t pid = 0;
  int rc = posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    return -1;
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) {
      return -1;
    }
  }
  auto end = std::chrono::steady_clock::now();
  if (!WIFEXITED(status) || WEXITSTATUS(status) != expected_exit) {
    return -1;
  }
  return std::chrono::duration_cast<std::chrono::microseconds>(end - start).count();
}

int64_t Median(std::vector<int64_t> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0 : v[v.size() / 2];
}

std::string Ms(int64_t us) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(us) / 1000.0);
  return buf;
}

void PrintResult() {
  const char* env_bin = std::getenv("SASH_BIN");
  const std::string sash = env_bin != nullptr && *env_bin != '\0' ? env_bin : SASH_BIN_DEFAULT;
  const fs::path dir =
      fs::temp_directory_path() / ("sash_bench_startup_" + std::to_string(getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string script = (dir / "steam_updater.sh").string();
  fs::copy_file(fs::path(SASH_SCRIPTS_DIR) / "steam_updater.sh", script);
  const std::string cache = (dir / "cache").string();

  // The steam script has a finding, so both analyze commands exit 1.
  std::vector<Command> commands = {
      {"/bin/true", {"/bin/true"}, 0, {}},
      {"sash version", {sash, "version"}, 0, {}},
      {"sash analyze (warm hit)",
       {sash, "analyze", "--format=json", "--cache-dir", cache, script}, 1, {}},
      {"sash analyze --no-cache", {sash, "analyze", "--format=json", "--no-cache", script}, 1, {}},
  };
  bool runs_ok = TimeOnce(commands[2].argv, 1) >= 0;  // Fills the cache.
  for (int round = 0; round < kRounds && runs_ok; ++round) {
    for (Command& c : commands) {
      int64_t us = TimeOnce(c.argv, c.expected_exit);
      if (us < 0) {
        std::fprintf(stderr, "bench_startup: %s failed\n", c.label);
        runs_ok = false;
        break;
      }
      c.micros.push_back(us);
    }
  }
  fs::remove_all(dir);

  std::vector<std::vector<std::string>> rows = {{"command", "median ms", "runs"}};
  for (const Command& c : commands) {
    rows.push_back({c.label, Ms(Median(c.micros)), std::to_string(c.micros.size())});
  }
  sash::bench::PrintTable("S0: exec-to-exit start-up, median of interleaved runs", rows);

  const int64_t true_us = Median(commands[0].micros);
  const int64_t version_us = Median(commands[1].micros);
  const int64_t warm_us = Median(commands[2].micros);
  const bool valid = SASH_STARTUP_FLOORS != 0;
  const bool version_ok = !valid || version_us <= true_us + kVersionOverTrueUs;
  const bool warm_ok = !valid || warm_us <= version_us + kWarmOverVersionUs;
  std::printf("sash version <= /bin/true + 0.3 ms: %s\n",
              !valid ? "skipped (sanitizer build: sash links dynamically)"
                     : (version_ok ? "ok" : "FAILED"));
  std::printf("warm hit <= sash version + 0.3 ms: %s\n",
              !valid ? "skipped (sanitizer build: sash links dynamically)"
                     : (warm_ok ? "ok" : "FAILED"));
  sash::bench::Metric("startup.true_us", true_us);
  sash::bench::Metric("startup.version_us", version_us);
  sash::bench::Metric("startup.warm_us", warm_us);
  sash::bench::Metric("startup.cold_us", Median(commands[3].micros));
  sash::bench::Metric("startup.runs_ok", runs_ok ? 1 : 0);
  sash::bench::Metric("startup.valid", valid ? 1 : 0);
  sash::bench::Metric("startup.version_floor_ok", version_ok ? 1 : 0);
  sash::bench::Metric("startup.warm_floor_ok", warm_ok ? 1 : 0);
}

}  // namespace

SASH_BENCH_MAIN(PrintResult)
