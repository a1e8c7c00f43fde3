// The resident server's robustness contract, exercised end to end in one
// process: sash-rpc-v1 framing (including frame fuzz — truncation, oversize,
// garbage, mid-frame disconnects — against a live daemon), admission control
// and shedding, graceful drain with zero lost in-flight requests, stale
// socket/pidfile crash recovery, client retry/backoff under injected connect
// failures, budget clamping, idle reaping, and byte-identical warm replay
// through the shared on-disk cache.
#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "batch/batch.h"
#include "batch/cache.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/supervisor.h"
#include "serve/uds.h"
#include "json_normalize.h"
#include "obs/json.h"
#include "util/faultinject.h"

namespace sash::serve {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Protocol layer (no sockets).

TEST(Protocol, FrameRoundTripsByteAtATime) {
  const std::string payload = R"({"op":"ping","id":7})";
  std::string frame = EncodeFrame(FrameType::kRequest, payload);
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + payload.size());

  FrameReader reader;
  FrameType type;
  std::string got;
  std::string error;
  // Feeding one byte at a time must yield exactly one frame, at the end.
  for (size_t i = 0; i + 1 < frame.size(); ++i) {
    reader.Append(std::string_view(frame).substr(i, 1));
    EXPECT_EQ(reader.Next(&type, &got, &error), FrameStatus::kNeedMore);
  }
  reader.Append(std::string_view(frame).substr(frame.size() - 1));
  ASSERT_EQ(reader.Next(&type, &got, &error), FrameStatus::kFrame);
  EXPECT_EQ(type, FrameType::kRequest);
  EXPECT_EQ(got, payload);
  EXPECT_EQ(reader.Next(&type, &got, &error), FrameStatus::kNeedMore);
  EXPECT_FALSE(reader.mid_frame());
}

TEST(Protocol, BackToBackFramesDecodeInOrder) {
  FrameReader reader;
  std::string stream = EncodeFrame(FrameType::kRequest, "first") +
                       EncodeFrame(FrameType::kResponse, "second") +
                       EncodeFrame(FrameType::kRequest, "third");
  reader.Append(stream);
  FrameType type;
  std::string payload;
  std::string error;
  ASSERT_EQ(reader.Next(&type, &payload, &error), FrameStatus::kFrame);
  EXPECT_EQ(payload, "first");
  ASSERT_EQ(reader.Next(&type, &payload, &error), FrameStatus::kFrame);
  EXPECT_EQ(type, FrameType::kResponse);
  EXPECT_EQ(payload, "second");
  ASSERT_EQ(reader.Next(&type, &payload, &error), FrameStatus::kFrame);
  EXPECT_EQ(payload, "third");
}

TEST(Protocol, MalformedFramesPoisonTheReader) {
  struct Case {
    const char* name;
    std::string bytes;
  };
  std::string oversize = EncodeFrame(FrameType::kRequest, "x");
  // Rewrite the length field to exceed the cap.
  oversize[4] = '\xff';
  oversize[5] = '\xff';
  oversize[6] = '\xff';
  oversize[7] = '\x7f';
  std::string bad_type = EncodeFrame(FrameType::kRequest, "x");
  bad_type[8] = 9;
  std::string bad_reserved = EncodeFrame(FrameType::kRequest, "x");
  bad_reserved[10] = 1;
  const Case cases[] = {
      {"bad magic", std::string("XXXX\x01\x00\x00\x00\x01\x00\x00\x00", 12)},
      {"oversize length", oversize},
      {"bad type", bad_type},
      {"reserved nonzero", bad_reserved},
  };
  for (const Case& c : cases) {
    FrameReader reader;
    FrameType type;
    std::string payload;
    std::string error;
    reader.Append(c.bytes);
    EXPECT_EQ(reader.Next(&type, &payload, &error), FrameStatus::kMalformed) << c.name;
    EXPECT_TRUE(reader.poisoned()) << c.name;
    // Poisoning is sticky: even a perfectly good frame afterwards is refused.
    reader.Append(EncodeFrame(FrameType::kRequest, "fine"));
    EXPECT_EQ(reader.Next(&type, &payload, &error), FrameStatus::kMalformed) << c.name;
  }
}

TEST(Protocol, GarbageFuzzNeverCrashesTheReader) {
  // Deterministic garbage: the reader must always answer kNeedMore or
  // kMalformed, never crash or hand back a phantom frame.
  std::mt19937 rng(20260809);
  for (int round = 0; round < 200; ++round) {
    FrameReader reader;
    int frames = 0;
    for (int chunk = 0; chunk < 20; ++chunk) {
      std::string bytes(rng() % 64, '\0');
      for (char& b : bytes) {
        b = static_cast<char>(rng() & 0xff);
      }
      reader.Append(bytes);
      FrameType type;
      std::string payload;
      std::string error;
      FrameStatus status;
      while ((status = reader.Next(&type, &payload, &error)) == FrameStatus::kFrame) {
        ++frames;  // Possible only if the garbage embedded a valid header.
      }
      if (status == FrameStatus::kMalformed) {
        break;
      }
    }
    EXPECT_LE(frames, 20);
  }
}

TEST(Protocol, RequestJsonRoundTrips) {
  RpcRequest req;
  req.op = "analyze";
  req.id = 42;
  req.budget_ms = 1500;
  req.name = "dir/some script.sh";
  req.script = "echo \"hi\" | wc -l\n";
  req.annotations = "# sash: assume x\n";
  req.use_cache = false;
  req.lint = true;
  req.symex = false;
  req.stream = false;
  req.idempotence = true;
  req.coach = true;
  req.max_input_bytes = 12345;

  std::optional<RpcRequest> back = RpcRequest::Parse(req.ToJson());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->op, req.op);
  EXPECT_EQ(back->id, req.id);
  EXPECT_EQ(back->budget_ms, req.budget_ms);
  EXPECT_EQ(back->name, req.name);
  EXPECT_EQ(back->script, req.script);
  EXPECT_EQ(back->annotations, req.annotations);
  EXPECT_EQ(back->use_cache, req.use_cache);
  EXPECT_EQ(back->lint, req.lint);
  EXPECT_EQ(back->symex, req.symex);
  EXPECT_EQ(back->stream, req.stream);
  EXPECT_EQ(back->idempotence, req.idempotence);
  EXPECT_EQ(back->coach, req.coach);
  EXPECT_EQ(back->max_input_bytes, req.max_input_bytes);

  // Serialization is op-keyed: a mine request carries `command`, nothing else
  // beyond the envelope.
  RpcRequest mine;
  mine.op = "mine";
  mine.id = 5;
  mine.command = "grep";
  std::optional<RpcRequest> mine_back = RpcRequest::Parse(mine.ToJson());
  ASSERT_TRUE(mine_back.has_value());
  EXPECT_EQ(mine_back->op, "mine");
  EXPECT_EQ(mine_back->id, 5);
  EXPECT_EQ(mine_back->command, "grep");
}

TEST(Protocol, ResponseJsonRoundTripsWithRawReport) {
  RpcResponse resp;
  resp.id = 9;
  resp.status = kStatusOk;
  resp.file_status = "degraded";
  resp.degraded_reason = "state-cap";
  resp.cached = true;
  resp.warnings_or_worse = 3;
  resp.report_json = R"({"schema":"sash-analysis-v1","findings":[{"code":"X","line":1}]})";
  resp.report_text = "line1\nline2 \"quoted\"\n";
  resp.micros = 777;

  std::optional<RpcResponse> back = RpcResponse::Parse(resp.ToJson());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->id, resp.id);
  EXPECT_EQ(back->status, resp.status);
  EXPECT_EQ(back->file_status, resp.file_status);
  EXPECT_EQ(back->degraded_reason, resp.degraded_reason);
  EXPECT_EQ(back->cached, resp.cached);
  EXPECT_EQ(back->warnings_or_worse, resp.warnings_or_worse);
  // The raw report document must survive the round trip byte-for-byte —
  // this is what the --via byte-identity guarantee rides on.
  EXPECT_EQ(back->report_json, resp.report_json);
  EXPECT_EQ(back->report_text, resp.report_text);
  EXPECT_EQ(back->micros, resp.micros);

  EXPECT_FALSE(RpcRequest::Parse("not json").has_value());
  EXPECT_FALSE(RpcResponse::Parse("[1,2,3]").has_value());
}

// ---------------------------------------------------------------------------
// Live server fixture.

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("sash_serve_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    socket_ = (dir_ / "s.sock").string();
  }
  void TearDown() override {
    util::FaultInjector::Uninstall();
    fs::remove_all(dir_);
  }

  ServerOptions BaseOptions() {
    ServerOptions options;
    options.socket_path = socket_;
    options.jobs = 2;
    options.warmup = false;  // Tests don't need warm caches; keep them fast.
    options.batch.use_cache = false;
    return options;
  }

  ClientOptions BaseClient() {
    ClientOptions copt;
    copt.socket_path = socket_;
    copt.backoff_initial_ms = 1;
    copt.backoff_max_ms = 8;
    return copt;
  }

  static RpcRequest Ping(int64_t id) {
    RpcRequest req;
    req.op = "ping";
    req.id = id;
    return req;
  }

  static RpcRequest Analyze(int64_t id, std::string script, bool use_cache = false) {
    RpcRequest req;
    req.op = "analyze";
    req.id = id;
    req.name = "t" + std::to_string(id) + ".sh";
    req.script = std::move(script);
    req.use_cache = use_cache;
    return req;
  }

  fs::path dir_;
  std::string socket_;
};

TEST_F(ServeTest, PingAnalyzeMineAndStats) {
  Server server(BaseOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  Client client(BaseClient());
  CallResult pong = client.Call(Ping(1));
  ASSERT_TRUE(pong.ok) << pong.transport_error;
  EXPECT_EQ(pong.response.status, kStatusOk);
  EXPECT_EQ(pong.response.id, 1);
  EXPECT_NE(pong.response.body.find("\"pong\""), std::string::npos);

  CallResult analyzed = client.Call(Analyze(2, "cat f.txt | wc -l\n"));
  ASSERT_TRUE(analyzed.ok) << analyzed.transport_error;
  EXPECT_EQ(analyzed.response.status, kStatusOk);
  EXPECT_EQ(analyzed.response.file_status, "ok");
  EXPECT_NE(analyzed.response.report_json.find("sash-analysis-v1"), std::string::npos);
  EXPECT_FALSE(analyzed.response.report_text.empty());

  RpcRequest mine;
  mine.op = "mine";
  mine.id = 3;
  mine.command = "grep";
  CallResult mined = client.Call(mine);
  ASSERT_TRUE(mined.ok) << mined.transport_error;
  EXPECT_EQ(mined.response.status, kStatusOk);
  EXPECT_NE(mined.response.body.find("\"command\""), std::string::npos);

  RpcRequest unknown;
  unknown.op = "frobnicate";
  unknown.id = 4;
  CallResult nope = client.Call(unknown);
  ASSERT_TRUE(nope.ok);
  EXPECT_EQ(nope.response.status, kStatusError);
  EXPECT_NE(nope.response.error.find("unknown op"), std::string::npos);

  server.Stop();
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests, 4);
  EXPECT_EQ(stats.responses, 4);
  EXPECT_EQ(stats.malformed, 0);
}

// The `stats` op renders the server's own counts as one JSON object.
TEST_F(ServeTest, StatsOpRepliesWithServerCounts) {
  Server server(BaseOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  Client client(BaseClient());
  constexpr int kPings = 3;
  for (int i = 0; i < kPings; ++i) {
    ASSERT_TRUE(client.Call(Ping(i)).ok);
  }
  RpcRequest stats;
  stats.op = "stats";
  stats.id = kPings;
  CallResult r = client.Call(stats);
  ASSERT_TRUE(r.ok) << r.transport_error;
  EXPECT_EQ(r.response.status, kStatusOk);
  std::optional<obs::JsonValue> body = obs::JsonValue::Parse(r.response.body);
  ASSERT_TRUE(body.has_value()) << r.response.body;
  const obs::JsonValue* requests = body->Find("serve.requests");
  ASSERT_NE(requests, nullptr) << r.response.body;
  ASSERT_TRUE(requests->is_number());
  EXPECT_GE(requests->number, kPings + 1);  // The stats call counts itself.
  const obs::JsonValue* shed = body->Find("serve.shed");
  ASSERT_NE(shed, nullptr) << r.response.body;
  EXPECT_TRUE(shed->is_number());
  EXPECT_EQ(shed->number, 0);
  server.Stop();
}

TEST_F(ServeTest, WarmViaReplayIsByteIdenticalToLocal) {
  fs::path cache_dir = dir_ / "cache";
  const std::string script = "for f in *.sh; do\n  cat \"$f\" | wc -l\ndone\n";

  // Local cold run, through exactly the code path the server uses.
  batch::BatchOptions opt;
  opt.use_cache = true;
  opt.cache_dir = cache_dir;
  batch::Cache cache(cache_dir);
  batch::FileResult cold =
      batch::AnalyzeSourceCached(opt, "warm.sh", script, &cache, nullptr, nullptr);
  ASSERT_TRUE(cold.ok);
  ASSERT_FALSE(cold.cached);

  ServerOptions options = BaseOptions();
  options.batch.use_cache = true;
  options.batch.cache_dir = cache_dir;
  Server server(std::move(options));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  Client client(BaseClient());
  RpcRequest req = Analyze(1, script, /*use_cache=*/true);
  req.name = "warm.sh";
  CallResult warm = client.Call(req);
  ASSERT_TRUE(warm.ok) << warm.transport_error;
  EXPECT_EQ(warm.response.status, kStatusOk);
  EXPECT_TRUE(warm.response.cached);
  // The contract: warm server responses carry the cold run's exact bytes.
  EXPECT_EQ(warm.response.report_json, cold.report_json);
  EXPECT_EQ(warm.response.report_text, cold.report_text);
  EXPECT_EQ(warm.response.warnings_or_worse, cold.warnings_or_worse);
}

TEST_F(ServeTest, FrameFuzzPoisonsOnlyTheOffendingConnection) {
  Server server(BaseOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // A healthy long-lived connection that must survive every attack below.
  Client survivor(BaseClient());
  ASSERT_TRUE(survivor.Call(Ping(1)).ok);

  struct Attack {
    const char* name;
    std::string bytes;
  };
  std::string oversize(kFrameHeaderBytes, '\0');
  oversize.replace(0, 4, "SRP1");
  oversize[4] = '\xff';
  oversize[5] = '\xff';
  oversize[6] = '\xff';
  oversize[7] = '\x7f';
  oversize[8] = 1;
  const Attack attacks[] = {
      {"garbage bytes", "this is definitely not a sash-rpc-v1 frame at all"},
      {"oversized frame", oversize},
      {"truncated length prefix", std::string("SRP1\x10", 5)},
      {"response-typed frame", EncodeFrame(FrameType::kResponse, "{}")},
  };
  for (const Attack& attack : attacks) {
    std::string cerr_;
    int fd = ConnectUnix(socket_, 2000, &cerr_);
    ASSERT_GE(fd, 0) << attack.name << ": " << cerr_;
    ASSERT_TRUE(SendAll(fd, attack.bytes, 2000, &cerr_)) << attack.name;
    if (attack.bytes.size() >= kFrameHeaderBytes ||
        std::string_view(attack.bytes).substr(0, 4) != "SRP1") {
      // Complete-but-malformed input: the server must actively close us.
      std::string got;
      int64_t n = RecvSome(fd, &got, 1024, 3000, &cerr_);
      EXPECT_LE(n, 0) << attack.name << " should not yield a response";
    }
    ::close(fd);  // Mid-frame disconnect for the truncated case.
    // The daemon and the unrelated healthy connection are unaffected.
    CallResult alive = survivor.Call(Ping(99));
    ASSERT_TRUE(alive.ok) << attack.name << " downed the survivor: "
                          << alive.transport_error;
    EXPECT_EQ(alive.response.status, kStatusOk) << attack.name;
  }

  server.Stop();
  EXPECT_GE(server.stats().malformed, 3);
}

TEST_F(ServeTest, MidFrameDisconnectLeavesServerHealthy) {
  Server server(BaseOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // Send a valid header promising 100 bytes, deliver 10, vanish.
  std::string frame = EncodeFrame(FrameType::kRequest, std::string(100, 'p'));
  for (int i = 0; i < 5; ++i) {
    int fd = ConnectUnix(socket_, 2000, &error);
    ASSERT_GE(fd, 0) << error;
    ASSERT_TRUE(SendAll(fd, std::string_view(frame).substr(0, kFrameHeaderBytes + 10), 2000,
                        &error));
    ::close(fd);
  }
  Client client(BaseClient());
  CallResult alive = client.Call(Ping(1));
  ASSERT_TRUE(alive.ok) << alive.transport_error;
  server.Stop();
}

TEST_F(ServeTest, AdmissionControlShedsWithExplicitOverloadedVerdict) {
  ServerOptions options = BaseOptions();
  options.max_pending = 0;  // Everything beyond admission is shed.
  Server server(std::move(options));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  ClientOptions copt = BaseClient();
  copt.retry_transient = false;  // Surface the verdict instead of retrying.
  Client client(copt);
  CallResult shed = client.Call(Analyze(1, "echo hi\n"));
  ASSERT_TRUE(shed.ok) << shed.transport_error;
  EXPECT_EQ(shed.response.status, kStatusOverloaded);
  EXPECT_FALSE(shed.response.error.empty());

  server.Stop();
  EXPECT_GE(server.stats().shed, 1);
}

TEST_F(ServeTest, DrainAnswersEveryAcceptedInFlightRequest) {
  // Hold dispatched requests in flight with an injected 200ms dispatch
  // delay, then drain mid-flight: every accepted request must still get a
  // response, and the server must exit cleanly.
  util::FaultPlan plan;
  util::FaultRule rule;
  rule.site = util::FaultSite::kServeDispatch;
  rule.action = util::FaultAction::kDelay;
  rule.delay_ms = 200;
  plan.rules.push_back(rule);
  util::FaultInjector::Install(plan);

  ServerOptions options = BaseOptions();
  options.drain_deadline_ms = 2000;
  Server server(std::move(options));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  constexpr int kInFlight = 3;
  std::vector<std::thread> callers;
  std::atomic<int> answered{0};
  std::atomic<int> lost{0};
  for (int i = 0; i < kInFlight; ++i) {
    callers.emplace_back([&, i] {
      ClientOptions copt = BaseClient();
      copt.retry_transient = false;
      Client client(copt);
      CallResult r = client.Call(Analyze(i + 1, "echo " + std::to_string(i) + "\n"));
      if (r.ok) {
        answered.fetch_add(1, std::memory_order_relaxed);
      } else {
        lost.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Let the requests get accepted and dispatched (each then sleeps 200ms on
  // the pool), then pull the plug.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  server.BeginDrain();
  for (auto& t : callers) {
    t.join();
  }
  server.Stop();

  EXPECT_EQ(lost.load(), 0) << "an accepted in-flight request was dropped";
  EXPECT_EQ(answered.load(), kInFlight);
  EXPECT_TRUE(server.stopped());

  // Post-drain, new connections are refused (socket unlinked).
  std::string cerr_;
  EXPECT_LT(ConnectUnix(socket_, 200, &cerr_), 0);
}

TEST_F(ServeTest, ShutdownOpDrainsTheServer) {
  Server server(BaseOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  ClientOptions copt = BaseClient();
  copt.retry_transient = false;
  Client client(copt);
  RpcRequest req;
  req.op = "shutdown";
  req.id = 1;
  CallResult r = client.Call(req);
  ASSERT_TRUE(r.ok) << r.transport_error;
  EXPECT_EQ(r.response.status, kStatusOk);
  server.AwaitStopped();
  EXPECT_TRUE(server.stopped());
  server.Stop();
}

TEST_F(ServeTest, StaleSocketAndPidfileAreRecoveredAfterCrash) {
  // Simulate a crash: a bound-then-abandoned socket file plus a pidfile
  // naming a long-dead process.
  std::string error;
  int fd = ListenUnix(socket_, 4, &error);
  ASSERT_GE(fd, 0) << error;
  ::close(fd);  // Socket file remains; nobody accepts on it.
  ASSERT_TRUE(fs::exists(socket_));
  std::ofstream(socket_ + ".pid") << 999999999 << "\n";

  Server server(BaseOptions());
  ASSERT_TRUE(server.Start(&error)) << error;  // Stale leftovers recovered.
  Client client(BaseClient());
  EXPECT_TRUE(client.Call(Ping(1)).ok);
  server.Stop();
  // A clean drain removes both files.
  EXPECT_FALSE(fs::exists(socket_));
  EXPECT_FALSE(fs::exists(socket_ + ".pid"));
}

TEST_F(ServeTest, LiveServerOnTheSocketIsRefusedNotClobbered) {
  Server first(BaseOptions());
  std::string error;
  ASSERT_TRUE(first.Start(&error)) << error;

  Server second(BaseOptions());
  std::string refuse_error;
  EXPECT_FALSE(second.Start(&refuse_error));
  EXPECT_NE(refuse_error.find("already listening"), std::string::npos) << refuse_error;

  // The incumbent is untouched.
  Client client(BaseClient());
  EXPECT_TRUE(client.Call(Ping(1)).ok);
  first.Stop();
}

TEST_F(ServeTest, NonSocketFileAtThePathIsNeverUnlinked) {
  std::ofstream(socket_) << "precious data, definitely not a socket";
  Server server(BaseOptions());
  std::string error;
  EXPECT_FALSE(server.Start(&error));
  EXPECT_NE(error.find("not a socket"), std::string::npos) << error;
  ASSERT_TRUE(fs::exists(socket_));
  std::ifstream in(socket_);
  std::string content;
  std::getline(in, content);
  EXPECT_EQ(content, "precious data, definitely not a socket");
}

TEST_F(ServeTest, ClientRetriesThroughInjectedConnectFailure) {
  // The first connect attempt fails (injected); the bounded backoff loop
  // must recover on the second. Installed before Start, per the injector's
  // no-race contract.
  util::FaultPlan plan;
  util::FaultRule rule;
  rule.site = util::FaultSite::kClientConnect;
  rule.action = util::FaultAction::kFail;
  rule.nth = 1;
  plan.rules.push_back(rule);
  util::FaultInjector::Install(plan);

  Server server(BaseOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  Client client(BaseClient());
  CallResult r = client.Call(Ping(1));
  ASSERT_TRUE(r.ok) << r.transport_error;
  EXPECT_EQ(r.attempts, 2);
  server.Stop();
}

TEST_F(ServeTest, ClientGivesUpAfterBoundedConnectAttempts) {
  // Every connect attempt fails: the client gives up after exactly its
  // bounded budget instead of spinning forever. No server needed — the
  // injected failure fires before the socket is ever touched.
  util::FaultPlan plan;
  util::FaultRule rule;
  rule.site = util::FaultSite::kClientConnect;
  rule.action = util::FaultAction::kFail;
  plan.rules.push_back(rule);
  util::FaultInjector::Install(plan);

  ClientOptions copt = BaseClient();
  copt.connect_attempts = 3;
  Client client(copt);
  CallResult r = client.Call(Ping(2));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.attempts, 3);
  EXPECT_NE(r.transport_error.find("client.connect"), std::string::npos);
}

TEST_F(ServeTest, ClientRetryAgainstAbsentSocketFailsCleanly) {
  ClientOptions copt = BaseClient();
  copt.socket_path = (dir_ / "never-bound.sock").string();
  copt.connect_attempts = 3;
  Client client(copt);
  CallResult r = client.Call(Ping(1));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.attempts, 3);
  EXPECT_FALSE(r.transport_error.empty());
}

TEST_F(ServeTest, BudgetClampYieldsDegradedPartialReportNeverAHang) {
  ServerOptions options = BaseOptions();
  options.deadline_cap_ms = 1;  // Server-side clamp: even budget_ms=0 runs
                                // under a 1ms deadline.
  Server server(std::move(options));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // A script big enough that 1ms always expires mid-analysis.
  std::string script;
  for (int i = 0; i < 4000; ++i) {
    script += "cat file" + std::to_string(i) + ".txt | grep pattern | wc -l\n";
  }
  Client client(BaseClient());
  RpcRequest req = Analyze(1, std::move(script));
  req.budget_ms = 60000;  // The client asks big; the server's cap wins.
  CallResult r = client.Call(req);
  ASSERT_TRUE(r.ok) << r.transport_error;
  EXPECT_EQ(r.response.status, kStatusOk);
  EXPECT_EQ(r.response.file_status, "timed_out");
  EXPECT_EQ(r.response.degraded_reason, "timeout");
  // Degraded, not empty: the partial report is still a complete document.
  EXPECT_NE(r.response.report_json.find("sash-analysis-v1"), std::string::npos);

  server.Stop();
  EXPECT_GE(server.stats().timeouts, 1);
}

TEST_F(ServeTest, IdleConnectionsAreReaped) {
  ServerOptions options = BaseOptions();
  options.idle_timeout_ms = 100;
  Server server(std::move(options));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  int fd = ConnectUnix(socket_, 2000, &error);
  ASSERT_GE(fd, 0) << error;
  // Say nothing; the server must close us.
  std::string got;
  int64_t n = RecvSome(fd, &got, 64, 3000, &error);
  EXPECT_EQ(n, 0) << "expected orderly close, got " << error;
  ::close(fd);
  server.Stop();
  EXPECT_GE(server.stats().idle_closed, 1);
}

TEST_F(ServeTest, ChaosSoakUnderDefaultPlanNeverDropsARequest) {
  // The built-in chaos plan (dropped accepts, refused connects, delayed
  // dispatches) against concurrent clients: the retry loop must absorb every
  // fault; every request is eventually answered correctly.
  util::FaultInjector::Install(util::FaultPlan::DefaultChaos(20260809));

  Server server(BaseOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  constexpr int kClients = 4;
  constexpr int kCalls = 8;
  std::vector<std::thread> clients;
  std::atomic<int> ok_count{0};
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ClientOptions copt = BaseClient();
      copt.connect_attempts = 10;  // Chaos drops ~1% of connects/accepts.
      Client client(copt);
      for (int i = 0; i < kCalls; ++i) {
        CallResult r = client.Call(Analyze(c * 100 + i, "echo chaos | wc -c\n"));
        if (r.ok && r.response.status == kStatusOk && r.response.file_status == "ok") {
          ok_count.fetch_add(1, std::memory_order_relaxed);
        } else {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : clients) {
    t.join();
  }
  server.Stop();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(ok_count.load(), kClients * kCalls);
  util::FaultInjector::Uninstall();
}

// A rate-gated chaos rule rolls per accept and per connect attempt, not once
// per socket path: on a path whose bare roll fires, every call must still
// be answered. Each call uses a fresh client, so each connects and is
// accepted anew.
TEST_F(ServeTest, ChaosRollsPerAttemptNotOncePerSocketPath) {
  util::FaultInjector::Install(util::FaultPlan::DefaultChaos(20260809));
  for (util::FaultSite site : {util::FaultSite::kServeAccept, util::FaultSite::kClientConnect}) {
    std::string path;
    for (int i = 0; i < 100000 && path.empty(); ++i) {
      std::string candidate = (dir_ / ("c" + std::to_string(i) + ".sock")).string();
      if (util::FaultInjector::Check(site, candidate).action == util::FaultAction::kFail) {
        path = candidate;
      }
    }
    ASSERT_FALSE(path.empty()) << "no socket path whose bare roll fires";

    ServerOptions options = BaseOptions();
    options.socket_path = path;
    Server server(std::move(options));
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;
    ClientOptions copt = BaseClient();
    copt.socket_path = path;
    copt.connect_attempts = 10;
    for (int i = 0; i < 8; ++i) {
      Client client(copt);
      CallResult r = client.Call(Ping(i));
      EXPECT_TRUE(r.ok) << path << ": " << r.transport_error;
    }
    server.Stop();
  }
  util::FaultInjector::Uninstall();
}

// ---------------------------------------------------------------------------
// Crash containment (--isolate) and the self-healing supervisor.

TEST_F(ServeTest, IsolatedWorkerCrashCostsOneReplyAndNeighborsAreByteIdentical) {
  // Four concurrent clients, one of which analyzes a script whose worker is
  // made to SIGSEGV (deterministic =crash fault, keyed to the victim's
  // name). The contract under test is the ISSUE's acceptance criterion:
  // exactly one failed reply carrying degraded_reason "crashed:SIGSEGV",
  // zero lost requests, byte-identical replies for everyone else, and a
  // daemon that keeps serving afterward.
  const std::vector<std::pair<std::string, std::string>> scripts = {
      {"bystander-a.sh", "cat a.txt | wc -l\n"},
      {"victim.sh", "cat v.txt | sort | uniq\n"},
      {"bystander-b.sh", "grep -r TODO src | wc -l\n"},
      {"bystander-c.sh", "for f in *.log; do gzip \"$f\"; done\n"},
  };
  auto run_wave = [&](std::vector<RpcResponse>* out) {
    ServerOptions options = BaseOptions();
    options.batch.isolate = true;
    Server server(std::move(options));
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;

    out->resize(scripts.size());
    std::vector<std::thread> callers;
    std::atomic<int> lost{0};
    for (size_t i = 0; i < scripts.size(); ++i) {
      callers.emplace_back([&, i] {
        Client client(BaseClient());
        RpcRequest req;
        req.op = "analyze";
        req.id = static_cast<int64_t>(i) + 1;
        req.name = scripts[i].first;
        req.script = scripts[i].second;
        CallResult r = client.Call(req);
        if (r.ok) {
          (*out)[i] = r.response;
        } else {
          lost.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (auto& t : callers) {
      t.join();
    }
    EXPECT_EQ(lost.load(), 0) << "a crash lost a neighboring request";

    // The daemon survived the wave: it still answers new work.
    Client after(BaseClient());
    CallResult ping = after.Call(Ping(99));
    ASSERT_TRUE(ping.ok) << ping.transport_error;
    RpcRequest extra;
    extra.op = "analyze";
    extra.id = 100;
    extra.name = "after.sh";
    extra.script = "echo still alive\n";
    CallResult alive = after.Call(extra);
    ASSERT_TRUE(alive.ok) << alive.transport_error;
    EXPECT_EQ(alive.response.file_status, "ok");

    server.Stop();
  };

  // Wave 1: no faults — the reference bytes.
  std::vector<RpcResponse> clean;
  run_wave(&clean);
  for (const RpcResponse& r : clean) {
    ASSERT_EQ(r.file_status, "ok") << r.error;
  }

  // Wave 2: the victim's worker takes a real SIGSEGV.
  util::FaultPlan plan;
  util::FaultRule rule;
  rule.site = util::FaultSite::kAnalyzeFile;
  rule.match = "victim";
  rule.action = util::FaultAction::kCrash;
  plan.rules.push_back(rule);
  util::FaultInjector::Install(plan);
  std::vector<RpcResponse> chaotic;
  run_wave(&chaotic);
  util::FaultInjector::Uninstall();

  int failed = 0;
  for (size_t i = 0; i < scripts.size(); ++i) {
    if (scripts[i].first == "victim.sh") {
      ++failed;
      EXPECT_EQ(chaotic[i].status, kStatusError);
      EXPECT_EQ(chaotic[i].file_status, "failed");
      EXPECT_EQ(chaotic[i].degraded_reason, "crashed:SIGSEGV");
      EXPECT_NE(chaotic[i].error.find("crashed"), std::string::npos);
    } else {
      EXPECT_EQ(chaotic[i].file_status, "ok") << scripts[i].first;
      // Identity modulo wall-clock timings: the crash next door is invisible
      // in these replies (the cache is off here, so each wave re-analyzes and
      // phase timings legitimately differ).
      EXPECT_EQ(testing::NormalizeJson(chaotic[i].report_json),
                testing::NormalizeJson(clean[i].report_json))
          << scripts[i].first;
      EXPECT_EQ(chaotic[i].report_text, clean[i].report_text) << scripts[i].first;
      EXPECT_EQ(chaotic[i].warnings_or_worse, clean[i].warnings_or_worse);
    }
  }
  EXPECT_EQ(failed, 1) << "exactly one reply should fail";
}

TEST_F(ServeTest, UnisolatedCrashFaultDegradesToPlainFailure) {
  // The same =crash plan without --isolate must NOT kill the daemon: outside
  // a sacrificial worker the fault degrades to an ordinary injected failure.
  util::FaultPlan plan;
  util::FaultRule rule;
  rule.site = util::FaultSite::kAnalyzeFile;
  rule.match = "victim";
  rule.action = util::FaultAction::kCrash;
  plan.rules.push_back(rule);
  util::FaultInjector::Install(plan);

  Server server(BaseOptions());  // isolate stays false.
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  Client client(BaseClient());
  RpcRequest req;
  req.op = "analyze";
  req.id = 1;
  req.name = "victim.sh";
  req.script = "echo boom\n";
  CallResult r = client.Call(req);
  ASSERT_TRUE(r.ok) << r.transport_error;
  EXPECT_EQ(r.response.status, kStatusError);
  EXPECT_EQ(r.response.file_status, "failed");
  EXPECT_NE(r.response.error.find("crash requested outside a worker"), std::string::npos);
  EXPECT_TRUE(client.Call(Ping(2)).ok);
  server.Stop();
}

TEST_F(ServeTest, PeerTeardownMidReplyDoesNotKillTheServer) {
  // A client that sends a request and slams its socket shut before reading
  // the reply: the server's write hits a dead peer (EPIPE/ECONNRESET
  // territory). SIGPIPE would kill the whole daemon; the contract is that
  // the teardown costs one connection, nothing else.
  Server server(BaseOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // A big script makes the reply large enough that it cannot be swallowed
  // by kernel buffers before we vanish.
  std::string script;
  for (int i = 0; i < 2000; ++i) {
    script += "cat f" + std::to_string(i) + " | wc -l\n";
  }
  for (int round = 0; round < 5; ++round) {
    int fd = ConnectUnix(socket_, 2000, &error);
    ASSERT_GE(fd, 0) << error;
    RpcRequest req;
    req.op = "analyze";
    req.id = round + 1;
    req.name = "gone.sh";
    req.script = script;
    ASSERT_TRUE(SendAll(fd, EncodeFrame(FrameType::kRequest, req.ToJson()), 2000, &error));
    ::close(fd);  // Read side torn down before (and during) the reply.
  }

  // The daemon took every teardown in stride.
  Client client(BaseClient());
  CallResult alive = client.Call(Ping(42));
  ASSERT_TRUE(alive.ok) << alive.transport_error;
  EXPECT_EQ(alive.response.status, kStatusOk);
  server.Stop();
}

TEST_F(ServeTest, SupervisorRestartsASigkilledDaemonAndServesAgain) {
  ServerOptions options = BaseOptions();
  SupervisorOptions sup;
  sup.heartbeat_interval_ms = 100;
  sup.backoff_initial_ms = 50;
  sup.backoff_max_ms = 200;
  sup.stable_after_ms = 100;
  Supervisor supervisor(std::move(options), sup);

  std::atomic<int> rc{-1};
  std::thread runner([&] {
    std::string error;
    rc.store(supervisor.Run(&error), std::memory_order_release);
  });

  auto ping_until = [&](int64_t deadline_ms) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(deadline_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      ClientOptions copt = BaseClient();
      copt.connect_attempts = 1;
      Client client(copt);
      CallResult r = client.Call(Ping(1));
      if (r.ok && r.response.status == kStatusOk) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    return false;
  };

  // Incarnation 1 comes up; its pid is the daemon's (child), not ours.
  ASSERT_TRUE(ping_until(10000)) << "first incarnation never served";
  int64_t pid1 = ReadPidFile(socket_ + ".pid");
  ASSERT_GT(pid1, 0);
  ASSERT_NE(pid1, static_cast<int64_t>(::getpid()));

  // Murder the daemon outright. The supervisor must notice the abnormal
  // exit and bring up incarnation 2 (stale socket recovery included).
  ASSERT_EQ(::kill(static_cast<pid_t>(pid1), SIGKILL), 0);
  ASSERT_TRUE(ping_until(10000)) << "no restart after SIGKILL";
  int64_t pid2 = ReadPidFile(socket_ + ".pid");
  EXPECT_GT(pid2, 0);
  EXPECT_NE(pid2, pid1) << "the pidfile still names the dead daemon";
  EXPECT_GE(supervisor.restarts(), 1);

  // A graceful stop drains incarnation 2 and the supervisor exits 0.
  supervisor.RequestStop();
  runner.join();
  EXPECT_EQ(rc.load(std::memory_order_acquire), 0);
}

}  // namespace
}  // namespace sash::serve
