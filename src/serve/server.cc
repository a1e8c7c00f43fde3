#include "serve/server.h"

#include <errno.h>
#include <poll.h>
#include <signal.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>

#include "batch/cache.h"
#include "batch/isolate.h"
#include "core/analyzer.h"
#include "core/version.h"
#include "mining/pipeline.h"
#include "obs/journal.h"
#include "obs/json.h"
#include "obs/procstat.h"
#include "obs/trace.h"
#include "serve/uds.h"
#include "util/cancel.h"
#include "util/faultinject.h"
#include "util/thread_pool.h"

namespace sash::serve {

namespace {

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Wake-pipe byte values: completions just need a wakeup, signals carry the
// drain request out of the async-signal-safe handler.
constexpr char kWakeCompletion = 'c';
constexpr char kWakeDrain = 'd';

std::atomic<int> g_signal_wake_fd{-1};

void OnDrainSignal(int) {
  int fd = g_signal_wake_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    char b = kWakeDrain;
    [[maybe_unused]] ssize_t rc = ::write(fd, &b, 1);
  }
}

}  // namespace

struct Server::Connection {
  uint64_t id = 0;
  int fd = -1;
  FrameReader reader;
  std::string outbuf;
  size_t outpos = 0;
  int64_t last_activity_us = 0;
  bool busy = false;               // A request from this connection is on the pool.
  bool close_after_write = false;  // Close once outbuf drains.
};

Server::Server(ServerOptions options) : options_(std::move(options)) {
  if (options_.pidfile.empty()) {
    options_.pidfile = options_.socket_path + ".pid";
  }
}

Server::~Server() { Stop(); }

bool Server::Start(std::string* error) {
  // A resident daemon must not die because a client tore down the read side
  // of its socket mid-reply; sends use MSG_NOSIGNAL, this covers the rest.
  IgnoreSigPipe();

  // The socket's parent directory may not exist yet (first run with a fresh
  // runtime dir); EnsureDirectories absorbs a concurrent-creation race the
  // same way the cache path does.
  std::filesystem::path socket_dir = std::filesystem::path(options_.socket_path).parent_path();
  if (!socket_dir.empty() && !batch::EnsureDirectories(socket_dir)) {
    if (error != nullptr) {
      *error = "cannot create socket directory " + socket_dir.string();
    }
    return false;
  }

  // Recover from a predecessor's crash: a socket file nobody accepts on and
  // a pidfile naming a dead process are leftovers, not owners. A live server
  // (probe connect succeeds, or the pidfile names a live pid AND the socket
  // answers) is refused — never clobber a healthy sibling.
  SocketProbe probe = ProbeSocket(options_.socket_path, /*timeout_ms=*/250);
  if (probe == SocketProbe::kLive) {
    if (error != nullptr) {
      int64_t pid = ReadPidFile(options_.pidfile);
      *error = "a live sash server" + (pid > 0 ? " (pid " + std::to_string(pid) + ")" : "") +
               " is already listening on " + options_.socket_path;
    }
    return false;
  }
  if (probe == SocketProbe::kNotSocket) {
    if (error != nullptr) {
      *error = options_.socket_path + " exists and is not a socket; refusing to replace it";
    }
    return false;
  }
  if (probe == SocketProbe::kStale) {
    ::unlink(options_.socket_path.c_str());
  }
  int64_t old_pid = ReadPidFile(options_.pidfile);
  if (old_pid > 0 && !PidAlive(old_pid)) {
    ::unlink(options_.pidfile.c_str());
  }

  listen_fd_ = ListenUnix(options_.socket_path, options_.backlog, error);
  if (listen_fd_ < 0) {
    return false;
  }
  SetNonBlocking(listen_fd_);

  if (!WritePidFile(options_.pidfile, error)) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socket_path.c_str());
    return false;
  }
  pidfile_written_ = true;

  if (::pipe(wake_fd_) != 0) {
    if (error != nullptr) {
      *error = std::string("pipe: ") + strerror(errno);
    }
    return false;
  }
  SetNonBlocking(wake_fd_[0]);
  SetCloseOnExec(wake_fd_[0]);
  SetCloseOnExec(wake_fd_[1]);

  if (options_.batch.use_cache) {
    cache_ = std::make_unique<batch::Cache>(options_.batch.cache_dir);
  }
  pool_ = std::make_unique<util::ThreadPool>(options_.jobs, options_.batch.journal);

  if (options_.warmup) {
    // One uncached throwaway analysis pulls the spec library, regex pattern
    // cache, and interner into their steady warm state before the first
    // client arrives.
    core::AnalyzerOptions warm = options_.batch.analyzer;
    warm.cancel = nullptr;
    core::Analyzer analyzer(std::move(warm));
    analyzer.AnalyzeSource("echo warmup | wc -l\n");
  }

  if (options_.batch.journal != nullptr) {
    options_.batch.journal->Emit(obs::EventKind::kMark, "serve.start",
                                 static_cast<int64_t>(::getpid()));
  }
  loop_thread_ = std::thread([this] { Loop(); });
  return true;
}

void Server::BeginDrain() {
  bool expected = false;
  if (drain_.compare_exchange_strong(expected, true, std::memory_order_acq_rel)) {
    Wake();
  }
}

void Server::AwaitStopped() {
  std::unique_lock<std::mutex> lock(stopped_mu_);
  stopped_cv_.wait(lock, [this] { return stopped_.load(std::memory_order_acquire); });
}

void Server::Stop() {
  if (!loop_thread_.joinable()) {
    return;
  }
  BeginDrain();
  AwaitStopped();
  loop_thread_.join();
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

obs::NamedValues Server::StatValues() const {
  const ServerStats s = stats();
  obs::NamedValues values = {
      {"serve.connections", s.connections},
      {"serve.requests", s.requests},
      {"serve.responses", s.responses},
      {"serve.shed", s.shed},
      {"serve.draining", s.draining},
      {"serve.malformed", s.malformed},
      {"serve.timeouts", s.timeouts},
      {"serve.io_timeouts", s.io_timeouts},
      {"serve.idle_closed", s.idle_closed},
      {"serve.drain_cancelled", s.drain_cancelled},
      {"serve.worker_crashes", s.worker_crashes},
      {"serve.queue_depth", inflight_.load(std::memory_order_acquire)},
      {"process.rss_kb", obs::CurrentRssKb()},
      {"process.peak_rss_kb", obs::PeakRssKb()},
  };
  core::AddHotpathStats(&values);
  if (cache_ != nullptr) {
    batch::AddCacheStats(cache_->stats(), &values);
  }
  return values;
}

void Server::InstallSignalDrain(Server* server) {
  if (server == nullptr) {
    g_signal_wake_fd.store(-1, std::memory_order_relaxed);
    ::signal(SIGTERM, SIG_DFL);
    ::signal(SIGINT, SIG_DFL);
    return;
  }
  g_signal_wake_fd.store(server->wake_fd_[1], std::memory_order_relaxed);
  struct sigaction sa;
  memset(&sa, 0, sizeof(sa));
  sa.sa_handler = OnDrainSignal;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
}

void Server::Wake() {
  if (wake_fd_[1] >= 0) {
    char b = kWakeCompletion;
    [[maybe_unused]] ssize_t rc = ::write(wake_fd_[1], &b, 1);
  }
}

void Server::PostCompletion(Completion completion) {
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    completions_.push_back(std::move(completion));
  }
  Wake();
}

void Server::Loop() {
  bool cancelled_all = false;
  std::vector<pollfd> pfds;
  std::vector<uint64_t> pfd_conn;  // Parallel to pfds; 0 = not a connection.

  for (;;) {
    const int64_t now = NowUs();
    const bool drain = drain_.load(std::memory_order_acquire);
    if (drain && drain_started_us_ == 0) {
      drain_started_us_ = now;
      if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
      }
      // Unlink immediately: new clients fail fast (ENOENT beats a connect
      // that will never be accepted) and a replacement server can bind.
      ::unlink(options_.socket_path.c_str());
      if (options_.batch.journal != nullptr) {
        options_.batch.journal->Emit(obs::EventKind::kMark, "serve.drain",
                                     inflight_.load(std::memory_order_relaxed));
      }
      // Idle connections have nothing owed to them; reap them now.
      std::vector<Connection*> idle;
      for (auto& [id, conn] : connections_) {
        if (!conn->busy && conn->outbuf.empty()) {
          idle.push_back(conn.get());
        }
      }
      for (Connection* conn : idle) {
        CloseConnection(conn);
      }
    }
    if (drain && !cancelled_all && now - drain_started_us_ >= options_.drain_deadline_ms * 1000) {
      // Drain deadline: in-flight analyses are cancelled (kExternal), which
      // makes them return degraded partial reports promptly. They are still
      // answered — cancelled, not dropped.
      int64_t cancelled = 0;
      {
        std::lock_guard<std::mutex> lock(tokens_mu_);
        cancel_all_ = true;
        for (auto& [id, token] : active_tokens_) {
          token->Cancel(util::CancelReason::kExternal);
          ++cancelled;
        }
      }
      cancelled_all = true;
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.drain_cancelled += cancelled;
    }
    if (drain) {
      bool writes_pending = false;
      for (auto& [id, conn] : connections_) {
        if (conn->busy || !conn->outbuf.empty()) {
          writes_pending = true;
          break;
        }
      }
      if (inflight_.load(std::memory_order_acquire) == 0 && !writes_pending) {
        break;
      }
      // Failsafe: even if a client blackholes its response and a task
      // ignores its token, the loop exits eventually. io_timeout bounds the
      // writes; this bounds everything else.
      if (now - drain_started_us_ >=
          (options_.drain_deadline_ms + options_.io_timeout_ms + 2000) * 1000) {
        break;
      }
    }

    pfds.clear();
    pfd_conn.clear();
    pfds.push_back({wake_fd_[0], POLLIN, 0});
    pfd_conn.push_back(0);
    if (!drain && listen_fd_ >= 0 &&
        connections_.size() < static_cast<size_t>(options_.max_connections)) {
      pfds.push_back({listen_fd_, POLLIN, 0});
      pfd_conn.push_back(0);
    }
    for (auto& [id, conn] : connections_) {
      short events = 0;
      if (!conn->outbuf.empty()) {
        events = POLLOUT;
      } else if (!conn->busy) {
        events = POLLIN;
      }
      if (events != 0) {
        pfds.push_back({conn->fd, events, 0});
        pfd_conn.push_back(id);
      }
    }

    int timeout_ms = static_cast<int>(NextDeadlineMs(now));
    ::poll(pfds.data(), pfds.size(), timeout_ms);

    // Wake pipe first: a signal-delivered drain request must be seen before
    // this iteration's accept/read work, not after.
    if (pfds[0].revents & POLLIN) {
      char buf[64];
      ssize_t n;
      while ((n = ::read(wake_fd_[0], buf, sizeof(buf))) > 0) {
        for (ssize_t i = 0; i < n; ++i) {
          if (buf[i] == kWakeDrain) {
            drain_.store(true, std::memory_order_release);
          }
        }
      }
    }
    DrainCompletions();

    for (size_t i = 1; i < pfds.size(); ++i) {
      if (pfds[i].revents == 0) {
        continue;
      }
      if (pfd_conn[i] == 0) {
        AcceptNew();
        continue;
      }
      auto it = connections_.find(pfd_conn[i]);
      if (it == connections_.end()) {
        continue;  // Closed earlier in this iteration.
      }
      Connection* conn = it->second.get();
      if (pfds[i].revents & (POLLERR | POLLNVAL)) {
        CloseConnection(conn);
        continue;
      }
      if (pfds[i].revents & POLLOUT) {
        FlushWrites(conn);
        continue;
      }
      if (pfds[i].revents & (POLLIN | POLLHUP)) {
        ReadFrom(conn);
      }
    }

    EnforceTimeouts(NowUs());
  }

  // Teardown. Any task still running (failsafe exit) is cancelled, then the
  // pool is joined so no completion producer outlives the queue.
  {
    std::lock_guard<std::mutex> lock(tokens_mu_);
    cancel_all_ = true;
    for (auto& [id, token] : active_tokens_) {
      token->Cancel(util::CancelReason::kExternal);
    }
  }
  pool_.reset();
  DrainCompletions();
  for (auto& [id, conn] : connections_) {
    if (!conn->outbuf.empty()) {
      // Final best-effort flush with a short bound, so late responses reach
      // clients that are still listening.
      std::string error;
      SendAll(conn->fd, std::string_view(conn->outbuf).substr(conn->outpos),
              std::min<int64_t>(options_.io_timeout_ms, 1000), &error);
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.responses;
    }
    ::close(conn->fd);
  }
  connections_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  ::unlink(options_.socket_path.c_str());
  if (pidfile_written_) {
    ::unlink(options_.pidfile.c_str());
  }
  if (options_.batch.journal != nullptr) {
    options_.batch.journal->Emit(obs::EventKind::kMark, "serve.stop",
                                 stats().responses);
  }
  {
    std::lock_guard<std::mutex> lock(stopped_mu_);
    stopped_.store(true, std::memory_order_release);
  }
  stopped_cv_.notify_all();
}

int64_t Server::NextDeadlineMs(int64_t now_us) const {
  int64_t next_us = now_us + 500 * 1000;  // Safety-net tick.
  auto consider = [&next_us](int64_t deadline_us) {
    if (deadline_us < next_us) {
      next_us = deadline_us;
    }
  };
  for (const auto& [id, conn] : connections_) {
    if (conn->busy) {
      continue;  // Bounded by the request budget, not by the loop.
    }
    if (!conn->outbuf.empty() || conn->reader.mid_frame()) {
      consider(conn->last_activity_us + options_.io_timeout_ms * 1000);
    } else if (options_.idle_timeout_ms > 0) {
      consider(conn->last_activity_us + options_.idle_timeout_ms * 1000);
    }
  }
  if (drain_started_us_ != 0) {
    consider(drain_started_us_ + options_.drain_deadline_ms * 1000);
  }
  int64_t ms = (next_us - now_us) / 1000;
  return std::clamp<int64_t>(ms, 0, 500);
}

void Server::EnforceTimeouts(int64_t now_us) {
  std::vector<Connection*> doomed_io;
  std::vector<Connection*> doomed_idle;
  for (auto& [id, conn] : connections_) {
    if (conn->busy) {
      continue;
    }
    const int64_t age_us = now_us - conn->last_activity_us;
    if (!conn->outbuf.empty() || conn->reader.mid_frame()) {
      if (age_us >= options_.io_timeout_ms * 1000) {
        doomed_io.push_back(conn.get());
      }
    } else if (options_.idle_timeout_ms > 0 && age_us >= options_.idle_timeout_ms * 1000) {
      doomed_idle.push_back(conn.get());
    }
  }
  if (!doomed_io.empty() || !doomed_idle.empty()) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.io_timeouts += static_cast<int64_t>(doomed_io.size());
    stats_.idle_closed += static_cast<int64_t>(doomed_idle.size());
  }
  for (Connection* conn : doomed_io) {
    CloseConnection(conn);
  }
  for (Connection* conn : doomed_idle) {
    CloseConnection(conn);
  }
}

void Server::AcceptNew() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      return;  // EAGAIN, or a transient accept error; the loop re-polls.
    }
    if (util::FaultInjector::enabled()) {
      // The accept ordinal makes each accept roll on its own: with the
      // bare socket path, which every accept shares, a rate-gated rule
      // would drop every connection or none.
      util::FaultDecision fault = util::FaultInjector::Check(
          util::FaultSite::kServeAccept, options_.socket_path + "@" + std::to_string(++accepts_));
      util::FaultInjector::ApplyDelay(fault);
      if (fault.action == util::FaultAction::kFail) {
        ::close(fd);  // Simulated dropped connection; the client retries.
        continue;
      }
    }
    if (connections_.size() >= static_cast<size_t>(options_.max_connections)) {
      // Connection-level shed: tell the client why before closing, best
      // effort (the frame is small; a full socket buffer just loses it).
      RpcResponse shed;
      shed.status = kStatusOverloaded;
      shed.error = "connection limit reached";
      std::string frame = EncodeFrame(FrameType::kResponse, shed.ToJson());
      ::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
      ::close(fd);
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.shed;
      continue;
    }
    SetNonBlocking(fd);
    SetCloseOnExec(fd);
    auto conn = std::make_unique<Connection>();
    conn->id = next_conn_id_++;
    conn->fd = fd;
    conn->reader = FrameReader(options_.max_frame_bytes);
    conn->last_activity_us = NowUs();
    uint64_t id = conn->id;
    connections_.emplace(id, std::move(conn));
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.connections;
  }
}

void Server::ReadFrom(Connection* conn) {
  char buf[16 * 1024];
  for (;;) {
    ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      CloseConnection(conn);  // Peer closed or hard error.
      return;
    }
    size_t got = static_cast<size_t>(n);
    if (util::FaultInjector::enabled()) {
      util::FaultDecision fault =
          util::FaultInjector::Check(util::FaultSite::kServeRead, std::to_string(conn->id));
      util::FaultInjector::ApplyDelay(fault);
      if (fault.action == util::FaultAction::kFail) {
        CloseConnection(conn);  // Simulated torn read path.
        return;
      }
      if (fault.action == util::FaultAction::kTorn && got > 1) {
        got /= 2;  // Deliver a partial read; framing must cope.
      }
    }
    conn->last_activity_us = NowUs();
    conn->reader.Append(std::string_view(buf, got));
    FrameType type;
    std::string payload;
    std::string error;
    for (;;) {
      FrameStatus status = conn->reader.Next(&type, &payload, &error);
      if (status == FrameStatus::kNeedMore) {
        break;
      }
      if (status == FrameStatus::kMalformed || type != FrameType::kRequest) {
        {
          std::lock_guard<std::mutex> lock(stats_mu_);
          ++stats_.malformed;
        }
        if (options_.batch.journal != nullptr) {
          options_.batch.journal->Emit(obs::EventKind::kMark, "serve.malformed",
                                       static_cast<int64_t>(conn->id));
        }
        CloseConnection(conn);
        return;
      }
      const uint64_t conn_id = conn->id;
      HandleFrame(conn, std::move(payload));
      if (connections_.find(conn_id) == connections_.end()) {
        return;  // HandleFrame closed it.
      }
      if (conn->busy) {
        return;  // One request at a time; further bytes wait in the kernel.
      }
    }
    if (got < sizeof(buf)) {
      return;
    }
  }
}

void Server::RespondNow(Connection* conn, const RpcResponse& response) {
  conn->outbuf.append(EncodeFrame(FrameType::kResponse, response.ToJson()));
  conn->last_activity_us = NowUs();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.responses;
  }
  FlushWrites(conn);
}

void Server::HandleFrame(Connection* conn, std::string payload) {
  // Frame-level fields needed for an immediate verdict (the id) are cheap to
  // recover even when the request will be refused; full parsing happens on
  // the pool.
  if (drain_.load(std::memory_order_acquire)) {
    RpcResponse refused;
    refused.status = kStatusDraining;
    refused.error = "server is draining";
    if (std::optional<RpcRequest> req = RpcRequest::Parse(payload)) {
      refused.id = req->id;
    }
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.draining;
    }
    conn->close_after_write = true;
    RespondNow(conn, refused);
    return;
  }
  const int pending = inflight_.load(std::memory_order_acquire);
  if (pending >= options_.max_pending) {
    // Admission control: shed with an explicit verdict instead of queueing
    // unboundedly. The client's bounded backoff (or local fallback) takes
    // it from here.
    RpcResponse shed;
    shed.status = kStatusOverloaded;
    shed.error = "server at capacity (" + std::to_string(pending) + " pending)";
    if (std::optional<RpcRequest> req = RpcRequest::Parse(payload)) {
      shed.id = req->id;
    }
    if (options_.batch.journal != nullptr) {
      options_.batch.journal->Emit(obs::EventKind::kMark, "serve.shed", pending);
    }
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.shed;
    }
    RespondNow(conn, shed);
    return;
  }

  conn->busy = true;
  inflight_.fetch_add(1, std::memory_order_acq_rel);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.requests;
  }
  uint64_t conn_id = conn->id;
  std::string body = std::move(payload);
  pool_->Submit([this, conn_id, request = std::move(body)]() mutable {
    DispatchRequest(conn_id, std::move(request));
  });
}

void Server::DispatchRequest(uint64_t conn_id, std::string payload) {
  obs::StopWatch watch;
  RpcResponse response;
  bool timed_out = false;

  std::optional<RpcRequest> request = RpcRequest::Parse(payload);
  if (util::FaultInjector::enabled()) {
    util::FaultDecision fault = util::FaultInjector::Check(
        util::FaultSite::kServeDispatch, request.has_value() ? request->op : "?");
    util::FaultInjector::ApplyDelay(fault);
    if (fault.action == util::FaultAction::kFail) {
      response.status = kStatusError;
      response.error = "injected fault: serve.dispatch";
      if (request.has_value()) {
        response.id = request->id;
      }
      response.micros = watch.ElapsedMicros();
      PostCompletion({conn_id, EncodeFrame(FrameType::kResponse, response.ToJson()), false});
      return;
    }
  }
  if (!request.has_value()) {
    // Well-framed but unparseable JSON: the connection is healthy, the
    // request is not. Answer with an error; do not poison the connection.
    response.status = kStatusError;
    response.error = "request payload is not a valid sash-rpc-v1 document";
    response.micros = watch.ElapsedMicros();
    PostCompletion({conn_id, EncodeFrame(FrameType::kResponse, response.ToJson()), false});
    return;
  }

  // Per-request budget: the client's ask clamped by the server's cap, and
  // registered so a drain can cancel it.
  auto token = std::make_shared<util::CancelToken>();
  int64_t budget_ms = request->budget_ms > 0 ? request->budget_ms : options_.default_budget_ms;
  if (options_.deadline_cap_ms > 0) {
    budget_ms = budget_ms > 0 ? std::min(budget_ms, options_.deadline_cap_ms)
                              : options_.deadline_cap_ms;
  }
  if (budget_ms > 0) {
    token->SetDeadlineAfterMs(budget_ms);
  }
  {
    std::lock_guard<std::mutex> lock(tokens_mu_);
    active_tokens_[conn_id] = token;
    if (cancel_all_) {
      token->Cancel(util::CancelReason::kExternal);
    }
  }

  response = Execute(*request, token.get(), &timed_out);
  response.id = request->id;
  response.micros = watch.ElapsedMicros();

  {
    std::lock_guard<std::mutex> lock(tokens_mu_);
    active_tokens_.erase(conn_id);
  }
  PostCompletion({conn_id, EncodeFrame(FrameType::kResponse, response.ToJson()), timed_out});
}

RpcResponse Server::Execute(const RpcRequest& request, util::CancelToken* budget,
                            bool* timed_out) {
  RpcResponse response;
  if (request.op == "ping") {
    response.status = kStatusOk;
    obs::JsonWriter w;
    w.BeginObject();
    w.KV("pong", true);
    w.KV("version", core::kVersion);
    w.KV("pid", static_cast<int64_t>(::getpid()));
    w.EndObject();
    response.body = w.Take();
    return response;
  }
  if (request.op == "stats") {
    response.status = kStatusOk;
    obs::JsonWriter w;
    w.BeginObject();
    for (const auto& [name, value] : StatValues()) {
      w.KV(name, value);
    }
    w.EndObject();
    response.body = w.Take();
    return response;
  }
  if (request.op == "shutdown") {
    BeginDrain();
    response.status = kStatusOk;
    obs::JsonWriter w;
    w.BeginObject();
    w.KV("draining", true);
    w.EndObject();
    response.body = w.Take();
    return response;
  }
  if (request.op == "mine") {
    if (request.command.empty()) {
      response.status = kStatusError;
      response.error = "mine requires a command";
      return response;
    }
    mining::MiningOutcome outcome = mining::MineCommand(request.command, options_.batch.journal);
    response.status = kStatusOk;
    obs::JsonWriter w;
    w.BeginObject();
    w.KV("command", outcome.command);
    w.KV("ok", outcome.ok);
    if (!outcome.ok) {
      w.KV("error", outcome.error);
    }
    w.KV("probes", outcome.probes);
    w.KV("cases", outcome.cases);
    w.KV("agreement_x1000", static_cast<int64_t>(1000.0 * outcome.validation.Agreement()));
    w.KV("spec", outcome.ok ? outcome.spec.ToString() : std::string());
    w.EndObject();
    response.body = w.Take();
    return response;
  }
  if (request.op == "analyze") {
    // Per-request options overlay the server's base configuration; the
    // toggles mirror the CLI flags exactly so the cache key — and therefore
    // the report bytes — match a local run with the same flags.
    batch::BatchOptions opt = options_.batch;
    opt.analyzer.enable_lint = request.lint;
    opt.analyzer.enable_symex = request.symex;
    opt.analyzer.enable_stream_types = request.stream;
    opt.analyzer.enable_idempotence_check = request.idempotence;
    opt.analyzer.enable_optimization_coach = request.coach;
    opt.analyzer.max_input_bytes = request.max_input_bytes;
    if (!request.annotations.empty()) {
      opt.annotations_text = request.annotations;
    }
    batch::Cache* cache =
        (request.use_cache && cache_ != nullptr) ? cache_.get() : nullptr;
    std::string name = request.name.empty() ? std::string("<rpc>") : request.name;
    batch::FileResult file;
    if (opt.isolate) {
      // Crash containment: the analysis runs in a forked, rlimit-capped
      // worker. The shared budget token cannot cross the fork, so the
      // request's effective budget is re-derived into opt.deadline_ms (the
      // worker enforces it in-process) and the parent-side wall watchdog
      // rides 5s above it.
      int64_t budget_ms =
          request.budget_ms > 0 ? request.budget_ms : options_.default_budget_ms;
      if (options_.deadline_cap_ms > 0) {
        budget_ms = budget_ms > 0 ? std::min(budget_ms, options_.deadline_cap_ms)
                                  : options_.deadline_cap_ms;
      }
      if (budget_ms > 0) {
        opt.deadline_ms = budget_ms;
      }
      file = batch::AnalyzeSourceIsolated(opt, name, request.script, cache,
                                          /*abort=*/nullptr);
    } else {
      file = batch::AnalyzeSourceCached(opt, name, request.script, cache,
                                        /*abort=*/nullptr, budget);
    }
    response.status = kStatusOk;
    response.file_status = std::string(batch::FileStatusName(file.status));
    if (file.status == batch::FileStatus::kCrashed) {
      // On the wire a dead worker is a failed request — clients key off
      // "failed"; the post-mortem ("crashed:SIGSEGV", "rss-limit") travels
      // in degraded_reason. The event loop, warm caches, and every other
      // in-flight request are untouched.
      response.file_status = "failed";
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.worker_crashes;
    }
    response.degraded_reason = file.degraded_reason;
    response.cached = file.cached;
    response.warnings_or_worse = file.warnings_or_worse;
    response.report_json = std::move(file.report_json);
    response.report_text = std::move(file.report_text);
    if (!file.ok) {
      response.status = kStatusError;
      response.error = file.error;
    }
    if (file.status == batch::FileStatus::kTimedOut ||
        (budget != nullptr && budget->reason() == util::CancelReason::kExternal)) {
      *timed_out = file.status == batch::FileStatus::kTimedOut;
    }
    return response;
  }
  response.status = kStatusError;
  response.error = "unknown op: " + request.op;
  return response;
}

void Server::DrainCompletions() {
  std::deque<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    batch.swap(completions_);
  }
  for (Completion& completion : batch) {
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    if (completion.timed_out) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.timeouts;
    }
    auto it = connections_.find(completion.conn_id);
    if (it == connections_.end()) {
      continue;  // The client left; the answer has nowhere to go.
    }
    Connection* conn = it->second.get();
    conn->busy = false;
    conn->outbuf.append(completion.frame);
    conn->last_activity_us = NowUs();
    if (drain_.load(std::memory_order_acquire)) {
      conn->close_after_write = true;
    }
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.responses;
    }
    FlushWrites(conn);
  }
}

void Server::FlushWrites(Connection* conn) {
  while (conn->outpos < conn->outbuf.size()) {
    if (util::FaultInjector::enabled()) {
      util::FaultDecision fault =
          util::FaultInjector::Check(util::FaultSite::kServeWrite, std::to_string(conn->id));
      util::FaultInjector::ApplyDelay(fault);
      if (fault.action == util::FaultAction::kFail) {
        CloseConnection(conn);
        return;
      }
    }
    ssize_t n = ::send(conn->fd, conn->outbuf.data() + conn->outpos,
                       conn->outbuf.size() - conn->outpos, MSG_NOSIGNAL);
    if (n > 0) {
      conn->outpos += static_cast<size_t>(n);
      conn->last_activity_us = NowUs();
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;  // Poll will retry; the io timeout bounds the stall.
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    CloseConnection(conn);
    return;
  }
  conn->outbuf.clear();
  conn->outpos = 0;
  if (conn->close_after_write) {
    CloseConnection(conn);
  }
}

void Server::CloseConnection(Connection* conn) {
  ::close(conn->fd);
  connections_.erase(conn->id);
}

}  // namespace sash::serve
