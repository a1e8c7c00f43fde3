#include "serve/client.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "serve/uds.h"
#include "util/faultinject.h"

namespace sash::serve {

namespace {

int64_t BackoffMs(const ClientOptions& options, int attempt /* 1-based */) {
  int64_t ms = options.backoff_initial_ms;
  for (int i = 1; i < attempt && ms < options.backoff_max_ms; ++i) {
    ms *= 2;
  }
  return std::min(ms, options.backoff_max_ms);
}

}  // namespace

Client::Client(ClientOptions options) : options_(std::move(options)) {}

Client::~Client() { Close(); }

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool Client::ConnectOnce(int attempt, std::string* error) {
  if (util::FaultInjector::enabled()) {
    // The attempt number makes each attempt roll on its own: with the bare
    // socket path, which every attempt shares, a rate-gated rule would
    // refuse every attempt or none.
    util::FaultDecision fault = util::FaultInjector::Check(
        util::FaultSite::kClientConnect, options_.socket_path + "@" + std::to_string(attempt));
    util::FaultInjector::ApplyDelay(fault);
    if (fault.action == util::FaultAction::kFail) {
      if (error != nullptr) {
        *error = "injected fault: client.connect";
      }
      return false;
    }
  }
  int fd = ConnectUnix(options_.socket_path, options_.io_timeout_ms, error);
  if (fd < 0) {
    return false;
  }
  fd_ = fd;
  return true;
}

bool Client::Connect(std::string* error) {
  if (fd_ >= 0) {
    return true;
  }
  std::string last_error;
  for (int attempt = 1; attempt <= options_.connect_attempts; ++attempt) {
    if (ConnectOnce(attempt, &last_error)) {
      return true;
    }
    if (attempt < options_.connect_attempts) {
      std::this_thread::sleep_for(std::chrono::milliseconds(BackoffMs(options_, attempt)));
    }
  }
  if (error != nullptr) {
    *error = "connect to " + options_.socket_path + " failed after " +
             std::to_string(options_.connect_attempts) + " attempts: " + last_error;
  }
  return false;
}

std::optional<RpcResponse> Client::Roundtrip(const RpcRequest& request, std::string* error) {
  std::string frame = EncodeFrame(FrameType::kRequest, request.ToJson());
  if (!SendAll(fd_, frame, options_.io_timeout_ms, error)) {
    Close();
    return std::nullopt;
  }
  FrameReader reader;  // Default frame cap; responses can be large reports.
  std::string chunk;
  for (;;) {
    FrameType type;
    std::string payload;
    std::string frame_error;
    FrameStatus status = reader.Next(&type, &payload, &frame_error);
    if (status == FrameStatus::kFrame) {
      if (type != FrameType::kResponse) {
        if (error != nullptr) {
          *error = "server sent a non-response frame";
        }
        Close();
        return std::nullopt;
      }
      std::optional<RpcResponse> response = RpcResponse::Parse(payload);
      if (!response.has_value()) {
        if (error != nullptr) {
          *error = "server response payload is not valid sash-rpc-v1";
        }
        Close();
        return std::nullopt;
      }
      return response;
    }
    if (status == FrameStatus::kMalformed) {
      if (error != nullptr) {
        *error = "malformed response frame: " + frame_error;
      }
      Close();
      return std::nullopt;
    }
    int64_t n = RecvSome(fd_, &chunk, 64 * 1024, options_.io_timeout_ms, error);
    if (n <= 0) {
      if (n == 0 && error != nullptr) {
        *error = "server closed the connection mid-response";
      }
      Close();
      return std::nullopt;
    }
    reader.Append(chunk);
    chunk.clear();
  }
}

CallResult Client::Call(const RpcRequest& request) {
  CallResult result;
  std::string last_error = "not attempted";
  for (int attempt = 1; attempt <= options_.connect_attempts; ++attempt) {
    result.attempts = attempt;
    if (fd_ < 0 && !ConnectOnce(attempt, &last_error)) {
      if (attempt < options_.connect_attempts) {
        std::this_thread::sleep_for(std::chrono::milliseconds(BackoffMs(options_, attempt)));
      }
      continue;
    }
    std::string error;
    std::optional<RpcResponse> response = Roundtrip(request, &error);
    if (!response.has_value()) {
      // Transport tear mid-call (server died, timeout, torn frame): the
      // connection is gone; the next attempt reconnects. A request that was
      // accepted before the tear may have run — analyze/lint/mine are
      // read-only over the script, so re-issuing is safe.
      last_error = error;
      if (attempt < options_.connect_attempts) {
        std::this_thread::sleep_for(std::chrono::milliseconds(BackoffMs(options_, attempt)));
      }
      continue;
    }
    if (options_.retry_transient && (response->status == kStatusOverloaded ||
                                     response->status == kStatusDraining) &&
        attempt < options_.connect_attempts) {
      // Explicit shed verdict: the server is alive but refusing work. A
      // draining server also closed the connection; reconnect after backoff
      // (a replacement daemon may own the socket by then).
      last_error = "server " + response->status;
      if (response->status == kStatusDraining) {
        Close();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(BackoffMs(options_, attempt)));
      continue;
    }
    result.ok = true;
    result.response = std::move(*response);
    return result;
  }
  result.transport_error = last_error;
  return result;
}

}  // namespace sash::serve
