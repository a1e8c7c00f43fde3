// The resident analysis server — the paper's §4 JIT↔AOT loop as a
// long-lived daemon. `sash serve` binds a unix-domain socket, holds every
// warm structure (interned symbol table, compiled spec library, pattern
// caches, the incremental on-disk cache index) in one process, and answers
// analyze/lint/mine requests over the sash-rpc-v1 framing protocol in
// microseconds instead of a process spawn.
//
// Robustness is the design center, not a bolt-on:
//
//   admission     a bounded in-flight budget (max_pending): excess requests
//                 get an immediate `overloaded` response instead of queueing
//                 without bound. Clients back off and retry or fall back to
//                 local analysis; the server never wedges.
//   budgets       every request runs under a util::CancelToken whose
//                 deadline is the client's requested budget clamped by the
//                 server's cap — a degraded partial report comes back,
//                 never a hang.
//   timeouts      idle connections are reaped; a connection stalled mid-
//                 frame (read) or mid-response (write) is closed after
//                 io_timeout_ms. One slow or dead client costs one fd.
//   poisoning     a malformed frame (bad magic, oversize length, garbage)
//                 closes only the offending connection; every other
//                 connection, and the daemon, keeps serving.
//   drain         SIGTERM/SIGINT (or an rpc `shutdown`) begins a graceful
//                 drain: stop accepting, answer every accepted in-flight
//                 request (cancelling stragglers at the drain deadline so
//                 they finish degraded), then exit 0. No accepted request
//                 is ever dropped without a response.
//   crash safety  on restart after a crash the stale socket file and
//                 pidfile are detected (probe-connect + pid liveness) and
//                 recovered; a live server at the same path is refused.
//   chaos         util/faultinject sites on accept/read/write/dispatch make
//                 the whole request path testable under the seeded harness.
//
// Concurrency model: one event-loop thread owns every fd (poll-based,
// nonblocking); complete frames are dispatched to the existing work-stealing
// thread pool; finished responses come back to the loop over a completion
// queue + wake pipe and are written by the loop. One request in flight per
// connection (request-response protocol); concurrency comes from many
// connections sharing the pool.
#ifndef SASH_SERVE_SERVER_H_
#define SASH_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "batch/batch.h"
#include "serve/protocol.h"

namespace sash::util {
class ThreadPool;
class CancelToken;
}  // namespace sash::util

namespace sash::serve {

struct ServerOptions {
  std::string socket_path;
  std::string pidfile;  // Empty: socket_path + ".pid".

  int jobs = 0;          // Worker threads (<= 0: hardware concurrency).
  int backlog = 64;      // listen(2) backlog.
  int max_connections = 256;  // Accepted fds; beyond this, accept-and-close.
  int max_pending = 64;  // Admission bound: dispatched-but-unanswered
                         // requests across all connections; excess is shed
                         // with an `overloaded` response.

  int64_t deadline_cap_ms = 10000;   // Server-side clamp on request budgets
                                     // (0 = uncapped).
  int64_t default_budget_ms = 0;     // Applied when the client sends none.
  int64_t idle_timeout_ms = 300000;  // Reap connections idle this long.
  int64_t io_timeout_ms = 10000;     // Mid-frame read / stalled write cap.
  int64_t drain_deadline_ms = 5000;  // Grace for in-flight work on drain.
  uint32_t max_frame_bytes = kDefaultMaxFrameBytes;

  bool warmup = true;  // Analyze a trivial script at startup so the first
                       // real request hits warm specs/pattern caches.

  // Analysis configuration shared by every request (per-request flags
  // overlay the analyzer toggles; cache and annotations are server-wide).
  batch::BatchOptions batch;
};

// Post-drain accounting, for tests and the CLI exit report.
struct ServerStats {
  int64_t connections = 0;   // Accepted over the server's lifetime.
  int64_t requests = 0;      // Dispatched to the pool.
  int64_t responses = 0;     // Responses fully written.
  int64_t shed = 0;          // Requests refused with `overloaded`.
  int64_t draining = 0;      // Requests refused with `draining`.
  int64_t malformed = 0;     // Connections poisoned by bad frames.
  int64_t timeouts = 0;      // Requests whose budget expired (degraded).
  int64_t io_timeouts = 0;   // Connections closed for read/write stalls.
  int64_t idle_closed = 0;   // Connections reaped by the idle timeout.
  int64_t drain_cancelled = 0;  // In-flight requests cancelled at the
                                // drain deadline (still answered).
  int64_t worker_crashes = 0;   // Isolated analysis workers that died
                                // (signal / rss cap / watchdog); each one
                                // still produced a well-formed reply.
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds the socket (recovering stale socket/pidfile leftovers from a
  // crash), writes the pidfile, and starts the event loop + worker pool.
  // False + *error when the address is held by a live server or binding
  // fails; the daemon refuses to clobber a healthy sibling.
  bool Start(std::string* error);

  // Begins a graceful drain (idempotent, thread-safe): stop accepting,
  // answer in-flight work under the drain deadline, then the loop exits.
  void BeginDrain();

  // Blocks until the event loop has exited (i.e. a drain completed).
  void AwaitStopped();

  // BeginDrain + AwaitStopped + teardown. Safe to call repeatedly.
  void Stop();

  bool draining() const { return drain_.load(std::memory_order_acquire); }
  bool stopped() const { return stopped_.load(std::memory_order_acquire); }

  // Snapshot of the robustness counters (thread-safe; exact after Stop).
  ServerStats stats() const;

  // What the rpc `stats` op replies and `sash serve --stats` prints, by
  // name: the ServerStats counts as "serve.*", the requests in flight as
  // "serve.queue_depth", the shared cache's counts as "cache.*", and the
  // process-wide "hotpath.*" and "process.*" figures.
  obs::NamedValues StatValues() const;

  const ServerOptions& options() const { return options_; }

  // Routes SIGTERM/SIGINT to BeginDrain() on `server` via a self-pipe (the
  // handler itself only write(2)s one byte). Pass nullptr to uninstall
  // before the server is destroyed.
  static void InstallSignalDrain(Server* server);

 private:
  struct Connection;
  struct Completion {
    uint64_t conn_id = 0;
    std::string frame;        // Encoded response frame, ready to write.
    bool timed_out = false;   // Budget expired (stats only).
  };

  void Loop();
  void AcceptNew();
  void ReadFrom(Connection* conn);
  void HandleFrame(Connection* conn, std::string payload);
  void DispatchRequest(uint64_t conn_id, std::string payload);
  RpcResponse Execute(const RpcRequest& request, util::CancelToken* budget, bool* timed_out);
  void PostCompletion(Completion completion);
  void DrainCompletions();
  void FlushWrites(Connection* conn);
  void CloseConnection(Connection* conn);
  void Wake();
  void RespondNow(Connection* conn, const RpcResponse& response);
  int64_t NextDeadlineMs(int64_t now_us) const;
  void EnforceTimeouts(int64_t now_us);

  ServerOptions options_;

  int listen_fd_ = -1;
  int wake_fd_[2] = {-1, -1};  // [0] read end polled by the loop.
  bool pidfile_written_ = false;

  std::unique_ptr<util::ThreadPool> pool_;
  std::unique_ptr<batch::Cache> cache_;
  std::thread loop_thread_;

  std::atomic<bool> drain_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<int> inflight_{0};
  int64_t drain_started_us_ = 0;

  uint64_t next_conn_id_ = 1;
  uint64_t accepts_ = 0;  // accept(2) calls that returned a connection.
  std::map<uint64_t, std::unique_ptr<Connection>> connections_;

  std::mutex completions_mu_;
  std::deque<Completion> completions_;

  // Budget tokens for in-flight requests, so a drain can cancel them. The
  // tokens are owned jointly by the dispatching task and this registry.
  std::mutex tokens_mu_;
  std::map<uint64_t, std::shared_ptr<util::CancelToken>> active_tokens_;
  bool cancel_all_ = false;  // Set at the drain deadline; late registrants
                             // are cancelled on arrival (no race window).

  std::mutex stopped_mu_;
  std::condition_variable stopped_cv_;

  mutable std::mutex stats_mu_;
  ServerStats stats_;
};

}  // namespace sash::serve

#endif  // SASH_SERVE_SERVER_H_
