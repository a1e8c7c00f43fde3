// Client side of sash-rpc-v1: a persistent connection to a resident `sash
// serve` daemon with the robustness the ISSUE demands baked in — bounded
// deterministic exponential backoff on connect and on transient server
// verdicts (`overloaded`, `draining`), per-call I/O timeouts, and a clean
// transport-error report so the CLI can fall back to local analysis.
//
// The retry loop is deliberately deterministic (no jitter source): attempt n
// sleeps min(backoff_initial_ms << (n-1), backoff_max_ms). Tests can count
// the exact schedule; chaos runs stay reproducible under SASH_FAULT_SEED.
#ifndef SASH_SERVE_CLIENT_H_
#define SASH_SERVE_CLIENT_H_

#include <cstdint>
#include <optional>
#include <string>

#include "serve/protocol.h"

namespace sash::serve {

struct ClientOptions {
  std::string socket_path;
  int connect_attempts = 5;         // Bounded: never retries forever.
  int64_t backoff_initial_ms = 20;  // Doubles per attempt...
  int64_t backoff_max_ms = 500;     // ...up to this cap.
  int64_t io_timeout_ms = 10000;    // Per send/recv stall bound.
  bool retry_transient = true;      // Re-issue on overloaded/draining verdicts
                                    // (same bounded schedule as connect).
};

// The outcome of one Call: either a response (any status, including error
// statuses the server produced deliberately) or a transport failure after
// the retry budget — the caller decides whether to fall back to local.
struct CallResult {
  bool ok = false;                  // A response frame came back.
  std::string transport_error;      // Set when !ok.
  int attempts = 0;                 // Connect attempts consumed in total.
  RpcResponse response;             // Valid when ok.
};

class Client {
 public:
  explicit Client(ClientOptions options);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Sends `request` and waits for its response, (re)connecting and retrying
  // under the bounded backoff schedule as needed. The connection persists
  // across calls — warm repeat calls are one send + one recv.
  CallResult Call(const RpcRequest& request);

  // Connects without sending (eager validation); Call connects lazily anyway.
  bool Connect(std::string* error);

  bool connected() const { return fd_ >= 0; }
  void Close();

 private:
  // One connect; `attempt` (1-based) feeds the client.connect fault roll.
  bool ConnectOnce(int attempt, std::string* error);
  std::optional<RpcResponse> Roundtrip(const RpcRequest& request, std::string* error);

  ClientOptions options_;
  int fd_ = -1;
};

}  // namespace sash::serve

#endif  // SASH_SERVE_CLIENT_H_
