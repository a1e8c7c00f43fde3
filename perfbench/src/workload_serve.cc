// serve_mixed: one `sash serve -j1` daemon with a fresh cache and one
// closed-loop client in this process holding a persistent serve::Client.
// Client and daemon share the one CPU the run is pinned to: a request then
// costs its work and two context switches, not the wake-up of an idle vCPU,
// whose latency on a shared host follows the other guests. Requests follow
// a seeded stream: every tenth is first-seen (a cold analysis plus a
// synchronous Cache::Put before the reply) and the rest repeat a script
// already sent (a warm hit), so reads and writes share one pool and one
// cache. A run checks that the share of cold replies matches the stream's
// share of first-seen scripts.
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "batch/cache.h"
#include "bench.h"
#include "core/analyzer.h"
#include "corpus.h"
#include "serve/client.h"

namespace perfbench {

namespace {

constexpr int kStream = 1000000;  // Stream positions; a run uses a prefix.
constexpr int kNewPercent = 10;
// The daemon keeps what it learns from every script it analyzes, so its
// RSS grows with the requests a run gets through; peak_rss_mb is taken
// after a fixed number of them, or a faster host would read as more memory.
constexpr int64_t kRssRequests = 20000;
// The band the share of cold replies must stay in.
constexpr double kColdShareMin = 0.09;
constexpr double kColdShareMax = 0.11;

// First-seen scripts are a minority of requests but most of the server's
// CPU, so their cost is kept to a narrow band: a run's throughput should
// depend on the code, not on which scripts the seed drew.
ScriptMix ServeMix() {
  ScriptMix mix;
  mix.min_statements = 8;
  mix.max_statements = 24;
  mix.max_branches = 1;
  mix.pattern_pool = 64;
  return mix;
}

// The stream's scripts, each generated on first use. GenerateScript is
// deterministic per index, so every first-seen position of the stream gets a
// new script however far into the stream a run gets.
class ScriptPool {
 public:
  ScriptPool(uint64_t seed, size_t size) : seed_(seed), slots_(size) {}
  const Script& Get(int32_t index) {
    Slot& slot = slots_[static_cast<size_t>(index)];
    std::call_once(slot.once, [&] { slot.script = GenerateScript(seed_, index, ServeMix()); });
    return slot.script;
  }

 private:
  struct Slot {
    std::once_flag once;
    Script script;
  };
  uint64_t seed_;
  std::vector<Slot> slots_;
};

struct ServeSetup {
  std::unique_ptr<ScriptPool> pool;
  std::vector<int32_t> stream;  // Pool index per stream position.
  std::string dir;
  std::string socket;
  std::string cache_dir;
  Daemon daemon;
};

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h = (h ^ c) * 0x100000001b3ull;
  }
  return h;
}

sash::serve::Client MakeClient(const std::string& socket, int attempts) {
  sash::serve::ClientOptions options;
  options.socket_path = socket;
  options.connect_attempts = attempts;
  options.backoff_initial_ms = 1;
  options.backoff_max_ms = 50;
  return sash::serve::Client(options);
}

bool Ping(sash::serve::Client* client, int64_t id) {
  sash::serve::RpcRequest req;
  req.op = "ping";
  req.id = id;
  sash::serve::CallResult r = client->Call(req);
  return r.ok && r.response.status == sash::serve::kStatusOk;
}

// Starts a daemon on a fresh cache and waits until it answers a ping and has
// installed its SIGTERM handler (the CLI installs it after the server starts
// answering, and a SIGTERM before that kills the daemon instead of draining
// it).
bool StartDaemon(const Options& o, ServeSetup* s, const std::string& tag, Result* result) {
  s->dir = o.work + "/serve-" + tag;
  RemoveTree(s->dir);
  MakeDirs(s->dir);
  s->socket = s->dir + "/d.sock";
  s->cache_dir = s->dir + "/cache";
  if (!s->daemon.Start({o.sash, "serve", "--socket", s->socket, "--cache-dir", s->cache_dir,
                        "-j1"},
                       s->dir + "/serve.log")) {
    result->Wrong("cannot spawn sash serve");
    return false;
  }
  const int64_t deadline = NowNs() + 20000000000;
  while (NowNs() < deadline) {
    struct stat st {};
    if (stat(s->socket.c_str(), &st) == 0) {
      sash::serve::Client client = MakeClient(s->socket, 1);
      if (Ping(&client, 0) && s->daemon.CatchesSigterm()) {
        return true;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  result->Wrong("sash serve was not ready within 20 s");
  return false;
}

bool StopDaemon(ServeSetup* s, double* maxrss_mb, Result* result) {
  const int code = s->daemon.Stop(10000, maxrss_mb);
  if (code != 0) {
    result->Wrong("sash serve exited " + std::to_string(code) + " after SIGTERM (expected 0)");
    return false;
  }
  return true;
}

bool SetUp(const Options& o, int rep, ServeSetup* s, Result* result) {
  s->stream.clear();
  s->stream.reserve(kStream);
  Rng rng(o.seed, 4, 0);
  int32_t introduced = 0;
  for (int i = 0; i < kStream; ++i) {
    if (i % (100 / kNewPercent) == 0) {
      s->stream.push_back(introduced++);
    } else {
      s->stream.push_back(static_cast<int32_t>(rng.Range(0, introduced - 1)));
    }
  }
  s->pool = std::make_unique<ScriptPool>(o.seed, static_cast<size_t>(introduced));
  return StartDaemon(o, s, std::to_string(rep), result);
}

struct Reply {
  int32_t script = 0;
  bool cached = false;
  uint64_t hash = 0;
};

struct ClientLog {
  std::vector<double> latency_us;
  std::vector<double> server_us;
  std::vector<Reply> replies;
  std::vector<std::pair<int32_t, std::string>> cold;  // Cold replies, kept whole.
  int64_t retries = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
};

sash::serve::RpcRequest AnalyzeRequest(const Script& script, int64_t id) {
  sash::serve::RpcRequest req;
  req.op = "analyze";
  req.id = id;
  req.name = script.name;
  req.script = script.text;
  return req;
}

// What one pass of the client did.
struct Pass {
  ClientLog log;
  int64_t requests = 0;
  double wall_s = 0;
  double peak_rss_mb = 0;  // The daemon's, after kRssRequests (measured runs).
};

// The closed-loop client: sends the stream's positions in order, each once
// the previous reply is in, until `limit` positions are used or the deadline
// passes (deadline 0: no deadline). With `windows` set, each call's latency
// goes into it and the daemon's CPU time into its windows. With `replay`
// set (the traced run) it also replays each hit's key → get → decode in
// this process and pings every 16th request; with `spans` set it records
// all of that, plus the server's share of each call.
Pass RunClient(const ServeSetup& s, int64_t limit, int64_t deadline, bool replay,
               WindowLog* windows, SpanLog* spans) {
  Pass pass;
  ClientLog* log = &pass.log;
  sash::serve::Client client = MakeClient(s.socket, 8);
  sash::batch::Cache cache(s.cache_dir);
  const sash::core::AnalyzerOptions analyzer;
  double daemon_cpu_ms = windows != nullptr ? s.daemon.CpuMs() : 0;
  const int64_t start = NowNs();
  Scope root(spans, "serve_client");
  int64_t pos = 0;
  for (; pos < limit && (deadline == 0 || NowNs() < deadline); ++pos) {
    const int32_t idx = s.stream[static_cast<size_t>(pos)];
    const Script& script = s.pool->Get(idx);
    const int64_t id = pos + 1;
    const int64_t t0 = NowNs();
    sash::serve::CallResult r;
    {
      Scope span(spans, "serve.call", id);
      r = client.Call(AnalyzeRequest(script, id));
      if (spans != nullptr && r.ok) {
        const int64_t end = NowNs();
        spans->AddChild("serve.server", end - r.response.micros * 1000, end, id);
      }
    }
    const int64_t t1 = NowNs();
    log->retries += std::max(0, r.attempts - 1);
    if (!r.ok || r.response.status != sash::serve::kStatusOk || r.response.id != id ||
        r.response.report_json.empty()) {
      ++log->failed;
      log->errors.push_back(script.name + ": " +
                            (r.ok ? "status " + r.response.status : r.transport_error));
      continue;
    }
    log->latency_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    if (windows != nullptr) {
      if (pos + 1 == kRssRequests) {
        pass.peak_rss_mb = s.daemon.PeakRssMb();
      }
      windows->Add(static_cast<double>(t1 - t0) / 1e6);
      if (windows->Due()) {
        const double cpu_ms = s.daemon.CpuMs();
        windows->Close(cpu_ms - daemon_cpu_ms);
        daemon_cpu_ms = cpu_ms;
      }
    }
    log->server_us.push_back(static_cast<double>(r.response.micros));
    log->replies.push_back(Reply{idx, r.response.cached, Fnv1a(r.response.report_json)});
    if (!r.response.cached) {
      log->cold.emplace_back(idx, std::move(r.response.report_json));
    } else if (replay) {
      std::string key;
      std::optional<std::string> payload;
      {
        Scope span(spans, "batch.key", id);
        key = sash::batch::AnalysisKey(script.text, analyzer);
      }
      {
        Scope span(spans, "batch.cache_get", id);
        payload = cache.Get("analysis", key);
      }
      if (payload.has_value()) {
        Scope span(spans, "batch.cache_decode", id);
        sash::batch::DecodeAnalysisEntry(*payload);
      }
    }
    if (replay && pos % 16 == 0) {
      Scope span(spans, "serve.ping", id);
      Ping(&client, -id);
    }
  }
  root.End();
  if (windows != nullptr) {
    windows->Close(s.daemon.CpuMs() - daemon_cpu_ms);
  }
  pass.wall_s = Seconds(NowNs() - start);
  pass.requests = pos;
  return pass;
}

// Every reply is checked: each cold reply against a reference analysis made
// in this process (timings aside) and the script's planted codes, and each
// warm reply byte-for-byte against a cold reply for the same script. The
// share of cold replies must stay in its band.
void CheckReplies(const Options& o, const ServeSetup& s, const Pass& pass, Result* result) {
  std::map<int32_t, std::vector<const std::string*>> cold;
  std::map<int32_t, std::set<uint64_t>> cold_hashes;
  const ClientLog& log = pass.log;
  const size_t replies = log.replies.size();
  const size_t cold_replies = log.cold.size();
  result->attempted += static_cast<int64_t>(replies) + log.failed;
  result->failed += log.failed;
  for (const std::string& e : log.errors) {
    result->Wrong("serve_mixed " + e);
  }
  for (const auto& [idx, bytes] : log.cold) {
    cold[idx].push_back(&bytes);
    cold_hashes[idx].insert(Fnv1a(bytes));
  }
  for (const Reply& r : log.replies) {
    if (r.cached && cold_hashes[r.script].count(r.hash) == 0) {
      result->FailOp("serve_mixed " + s.pool->Get(r.script).name +
                     ": warm reply differs from every cold reply for the script");
    }
  }
  const double cold_share = replies > 0 ? static_cast<double>(cold_replies) / replies : 0;
  std::fprintf(stderr, "serve_mixed: %zu replies, %zu cold (%.2f%%; first-seen share %d%%)\n",
               replies, cold_replies, 100.0 * cold_share, kNewPercent);
  if (cold_share < kColdShareMin || cold_share > kColdShareMax) {
    result->Wrong("serve_mixed: cold replies are " + std::to_string(100.0 * cold_share) +
                  "% of replies, outside the band around the stream's first-seen share");
  }
  std::vector<int32_t> scripts;
  for (const auto& [idx, bytes] : cold) {
    scripts.push_back(idx);
  }
  // The reference analyses run on every CPU, after the measured part.
  const cpu_set_t pinned = Affinity();
  SetAffinity(o.all_cpus);
  std::atomic<size_t> next{0};
  std::mutex mu;
  std::vector<std::thread> threads;
  for (int t = 0; t < o.nproc; ++t) {
    threads.emplace_back([&] {
      while (true) {
        const size_t k = next.fetch_add(1);
        if (k >= scripts.size()) {
          return;
        }
        const Script& script = s.pool->Get(scripts[k]);
        const std::string reference = sash::core::Analyzer().AnalyzeSource(script.text).ToJson();
        std::optional<Json> ref = ParseJson(reference);
        for (const std::string* bytes : cold[scripts[k]]) {
          std::optional<Json> reply = ParseJson(*bytes);
          std::string wrong = !reply.has_value() ? "reply is not JSON"
                              : !ref.has_value() ? "reference is not JSON"
                                                 : CheckReport(script, *reply);
          if (wrong.empty() && NormalizedReport(*reply) != NormalizedReport(*ref)) {
            wrong = "cold reply differs from the local analysis";
          }
          if (!wrong.empty()) {
            std::lock_guard<std::mutex> lock(mu);
            result->FailOp("serve_mixed " + script.name + ": " + wrong);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  SetAffinity(pinned);
}

void Measure(const Options& o, ServeSetup* s, Result* result) {
  const int64_t deadline = NowNs() + static_cast<int64_t>(o.seconds) * 1000000000;
  WindowLog windows;
  Pass pass = RunClient(*s, kStream, deadline, false, &windows, nullptr);
  double maxrss = 0;
  StopDaemon(s, &maxrss, result);
  SetEndToEnd(result, windows.totals());
  if (pass.peak_rss_mb == 0) {
    std::fprintf(stderr, "serve_mixed: fewer than %lld requests; peak RSS is the whole run's\n",
                 static_cast<long long>(kRssRequests));
    pass.peak_rss_mb = maxrss;
  }
  std::fprintf(stderr,
               "serve_mixed: daemon peak RSS %.2f MB after %lld requests, %.2f MB at exit\n",
               pass.peak_rss_mb, static_cast<long long>(kRssRequests), maxrss);
  result->Set("peak_rss_mb", pass.peak_rss_mb, "MB");
  CheckReplies(o, *s, pass, result);
}

int64_t ServerShed(const ServeSetup& s) {
  sash::serve::Client client = MakeClient(s.socket, 3);
  sash::serve::RpcRequest req;
  req.op = "stats";
  req.id = 1;
  sash::serve::CallResult r = client.Call(req);
  std::optional<Json> body = r.ok ? ParseJson(r.response.body) : std::nullopt;
  // The stats body is the server's metrics registry; find "serve.shed".
  std::vector<const Json*> todo;
  if (body.has_value()) {
    todo.push_back(&*body);
  }
  while (!todo.empty()) {
    const Json* v = todo.back();
    todo.pop_back();
    for (const auto& [k, m] : v->members) {
      if (k == "serve.shed" && m.kind == Json::Kind::kNumber) {
        return static_cast<int64_t>(m.number);
      }
      todo.push_back(&m);
    }
  }
  return 0;
}

void Trace(const Options& o, ServeSetup* s, Result* result) {
  // Untraced for half the run on the set-up daemon, then the same stream
  // prefix traced on a fresh daemon and cache.
  const int64_t deadline = NowNs() + static_cast<int64_t>(o.seconds) * 500000000;
  Pass untraced = RunClient(*s, kStream, deadline, true, nullptr, nullptr);
  StopDaemon(s, nullptr, result);
  CheckReplies(o, *s, untraced, result);
  if (!StartDaemon(o, s, "traced", result)) {
    return;
  }
  SpanLog spans(0);
  Pass traced = RunClient(*s, untraced.requests, 0, true, nullptr, &spans);
  const int64_t shed = ServerShed(*s);
  StopDaemon(s, nullptr, result);
  CheckReplies(o, *s, traced, result);

  const std::vector<const SpanLog*> logs = {&spans};
  const ClientLog& log = traced.log;
  std::vector<double> transport_us;
  for (size_t i = 0; i < log.latency_us.size(); ++i) {
    transport_us.push_back(log.latency_us[i] - log.server_us[i]);
  }
  const double replies = static_cast<double>(log.replies.size());
  double hits = 0;
  double hit_bytes = 0;  // Script bytes the hit replays hashed.
  for (const Reply& r : log.replies) {
    if (r.cached) {
      hits += 1;
      hit_bytes += static_cast<double>(s->pool->Get(r.script).text.size());
    }
  }
  const std::vector<double> key_us = SpanMicros(logs, "batch.key");
  result->Set("serve.ping_us", Median(SpanMicros(logs, "serve.ping")), "us");
  result->Set("serve.call_us", Median(SpanMicros(logs, "serve.call")), "us");
  result->Set("serve.server_us", Median(log.server_us), "us");
  result->Set("serve.transport_us", Median(transport_us), "us");
  result->Set("serve.retries", static_cast<double>(log.retries), "count");
  result->Set("serve.shed", static_cast<double>(shed), "count");
  result->Set("batch.cache_hit_ratio", replies > 0 ? hits / replies : 0, "ratio");
  result->Set("batch.key_us", Median(key_us), "us");
  result->Set("batch.key_mb_s", hit_bytes / Sum(key_us), "MB/s");
  result->Set("batch.cache_get_us", Median(SpanMicros(logs, "batch.cache_get")), "us");
  result->Set("batch.cache_decode_us", Median(SpanMicros(logs, "batch.cache_decode")), "us");
  std::fprintf(stderr, "serve_mixed traced: %.0f replies, cache hit ratio %.0f/%.0f\n", replies,
               hits, replies);
  FinishTrace(o, logs, untraced.wall_s, traced.wall_s, result);
}

}  // namespace

Result RunServeMixed(const Options& options) {
  Result result;
  ServeSetup setup;
  // Set-up is timed from generating the stream to the daemon being ready;
  // stopping the previous repetition's daemon is not part of it. A set-up
  // takes tens of milliseconds, so its median is taken over nine.
  std::vector<double> setup_s;
  for (int rep = 0; rep < 9; ++rep) {
    if (setup.daemon.pid() > 0 && !StopDaemon(&setup, nullptr, &result)) {
      return result;
    }
    const int64_t start = NowNs();
    if (!SetUp(options, rep, &setup, &result)) {
      return result;
    }
    setup_s.push_back(ScaledSetupSeconds(Seconds(NowNs() - start)));
  }
  result.Set("setup_s", Median(setup_s), "s");
  if (options.trace) {
    Trace(options, &setup, &result);
  } else {
    Measure(options, &setup, &result);
  }
  return result;
}

}  // namespace perfbench
