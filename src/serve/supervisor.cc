#include "serve/supervisor.h"

#include <errno.h>
#include <signal.h>
#include <stdio.h>
#include <string.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "obs/session.h"
#include "serve/client.h"
#include "serve/uds.h"

namespace sash::serve {

namespace {

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Child exit code when Server::Start refuses (bad socket dir, live sibling).
// Distinct from crash-class deaths: a daemon that cannot even bind will not
// be fixed by restarting it in a loop.
constexpr int kStartFailureExit = 3;

constexpr int64_t kPollSliceMs = 50;

std::atomic<Supervisor*> g_signal_target{nullptr};

void ForwardSignal(int /*sig*/) {
  Supervisor* target = g_signal_target.load(std::memory_order_acquire);
  if (target != nullptr) {
    target->RequestStop();  // Atomics + kill(2) only: async-signal-safe.
  }
}

std::string DescribeExit(int status, bool killed_by_watchdog) {
  if (killed_by_watchdog) {
    return "unresponsive (missed heartbeats, SIGKILLed)";
  }
  if (WIFSIGNALED(status)) {
    const int sig = WTERMSIG(status);
    const char* name = strsignal(sig);
    return "killed by signal " + std::to_string(sig) +
           (name != nullptr ? " (" + std::string(name) + ")" : "");
  }
  if (WIFEXITED(status)) {
    return "exited with status " + std::to_string(WEXITSTATUS(status));
  }
  return "ended with status " + std::to_string(status);
}

}  // namespace

Supervisor::Supervisor(ServerOptions server, SupervisorOptions options)
    : server_(std::move(server)), options_(std::move(options)) {}

void Supervisor::RequestStop() {
  stop_.store(true, std::memory_order_release);
  const int64_t pid = child_pid_.load(std::memory_order_acquire);
  if (pid > 0) {
    ::kill(static_cast<pid_t>(pid), SIGTERM);
  }
}

void Supervisor::InstallSignalForward(Supervisor* supervisor) {
  g_signal_target.store(supervisor, std::memory_order_release);
  struct sigaction sa;
  memset(&sa, 0, sizeof(sa));
  sa.sa_handler = supervisor != nullptr ? ForwardSignal : SIG_DFL;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
}

int64_t Supervisor::SpawnChild() {
  pid_t pid = ::fork();
  if (pid < 0) {
    return -1;
  }
  if (pid == 0) {
    // The daemon incarnation. It owns the socket, pidfile, caches, and pool;
    // the supervisor keeps none of that, so a crash here loses one process
    // worth of state and nothing else.
    int rc = 0;
    {
      obs::Session session({.journal_out = options_.journal_path});
      ServerOptions incarnation = server_;
      incarnation.batch.journal = session.journal();
      Server server(std::move(incarnation));
      std::string error;
      if (!server.Start(&error)) {
        fprintf(stderr, "sash serve: %s\n", error.c_str());
        ::_exit(kStartFailureExit);
      }
      Server::InstallSignalDrain(&server);
      server.AwaitStopped();
      Server::InstallSignalDrain(nullptr);
      server.Stop();
      if (!session.Finish("sash serve")) {
        rc = 2;
      }
    }
    ::_exit(rc);
  }
  return static_cast<int64_t>(pid);
}

int Supervisor::WatchChild(int64_t pid, bool* killed_by_watchdog) {
  *killed_by_watchdog = false;
  ClientOptions ping_opts;
  ping_opts.socket_path = server_.socket_path;
  ping_opts.connect_attempts = 1;
  ping_opts.retry_transient = false;
  ping_opts.io_timeout_ms =
      std::max<int64_t>(250, std::min<int64_t>(options_.heartbeat_interval_ms, 2000));
  Client client(ping_opts);

  bool ever_ponged = false;
  int misses = 0;
  int64_t next_ping_ms = NowMs() + options_.heartbeat_interval_ms;

  for (;;) {
    int status = 0;
    pid_t reaped = ::waitpid(static_cast<pid_t>(pid), &status, WNOHANG);
    if (reaped == static_cast<pid_t>(pid)) {
      return status;
    }
    if (reaped < 0 && errno != EINTR) {
      return 0;  // ECHILD: the child is gone; treat as a graceful exit.
    }

    if (options_.heartbeat_interval_ms > 0 && !stop_.load(std::memory_order_acquire) &&
        NowMs() >= next_ping_ms) {
      RpcRequest ping;
      ping.op = "ping";
      CallResult result = client.Call(ping);
      if (result.ok) {
        ever_ponged = true;
        misses = 0;
      } else {
        client.Close();
        // Startup grace: a child that never answers because it could not
        // bind exits on its own (kStartFailureExit); only a daemon that WAS
        // healthy and stopped answering is the watchdog's business.
        if (ever_ponged) {
          ++misses;
        }
      }
      next_ping_ms = NowMs() + options_.heartbeat_interval_ms;
      if (misses >= options_.heartbeat_misses && options_.heartbeat_misses > 0) {
        *killed_by_watchdog = true;
        ::kill(static_cast<pid_t>(pid), SIGKILL);
        while (::waitpid(static_cast<pid_t>(pid), &status, 0) < 0 && errno == EINTR) {
        }
        return status;
      }
    }

    std::this_thread::sleep_for(std::chrono::milliseconds(kPollSliceMs));
  }
}

int Supervisor::Run(std::string* error) {
  IgnoreSigPipe();
  int64_t backoff_ms = options_.backoff_initial_ms;

  for (;;) {
    if (stop_.load(std::memory_order_acquire)) {
      return 0;
    }

    const int64_t pid = SpawnChild();
    if (pid < 0) {
      if (error != nullptr) {
        *error = "fork failed: " + std::string(strerror(errno));
      }
      return 1;
    }
    child_pid_.store(pid, std::memory_order_release);
    const int64_t born_ms = NowMs();
    // A stop that raced the spawn: the handler's kill saw child_pid_ == -1,
    // so forward the term now that the pid is visible.
    if (stop_.load(std::memory_order_acquire)) {
      ::kill(static_cast<pid_t>(pid), SIGTERM);
    }

    bool killed_by_watchdog = false;
    const int status = WatchChild(pid, &killed_by_watchdog);
    child_pid_.store(-1, std::memory_order_release);
    const int64_t lived_ms = NowMs() - born_ms;

    const bool graceful =
        !killed_by_watchdog && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (graceful) {
      return 0;
    }
    if (stop_.load(std::memory_order_acquire)) {
      // The operator asked for shutdown and the child still died abnormally;
      // report that rather than restarting into a stop request.
      return WIFEXITED(status) ? WEXITSTATUS(status) : 1;
    }
    if (!killed_by_watchdog && WIFEXITED(status) && WEXITSTATUS(status) == kStartFailureExit &&
        restarts_.load(std::memory_order_relaxed) == 0) {
      // First incarnation could not even start (bad config, live sibling):
      // restarting cannot help, and spinning against a bind error would be
      // worse than useless.
      if (error != nullptr) {
        *error = "serve daemon failed to start; not retrying";
      }
      return kStartFailureExit;
    }

    const int64_t restart_no = restarts_.fetch_add(1, std::memory_order_relaxed) + 1;
    fprintf(stderr, "sash: serve daemon %s after %lld ms; restart #%lld in %lld ms\n",
            DescribeExit(status, killed_by_watchdog).c_str(),
            static_cast<long long>(lived_ms), static_cast<long long>(restart_no),
            static_cast<long long>(backoff_ms));
    if (options_.max_restarts > 0 && restart_no > options_.max_restarts) {
      if (error != nullptr) {
        *error = "serve daemon kept dying; gave up after " +
                 std::to_string(options_.max_restarts) + " restarts";
      }
      return 1;
    }

    // Interruptible backoff sleep, then double toward the cap. A child that
    // stayed up long enough to be called stable earns a fresh schedule.
    if (lived_ms >= options_.stable_after_ms) {
      backoff_ms = options_.backoff_initial_ms;
    }
    const int64_t sleep_until = NowMs() + backoff_ms;
    while (NowMs() < sleep_until && !stop_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(kPollSliceMs));
    }
    backoff_ms = std::min(backoff_ms * 2, options_.backoff_max_ms);
  }
}

}  // namespace sash::serve
