// Resident-server soak benchmark (PR 7, experiment S1): an in-process `sash
// serve` daemon on a unix socket, a warm shared cache, and N concurrent
// clients hammering analyze requests through the sash-rpc-v1 framing. Three
// claims are enforced against bench/baseline.json:
//
//   serve.warm_identical   every warm --via response carries byte-identical
//                          report_json/report_text to the cold local run that
//                          populated the cache (the protocol adds nothing and
//                          loses nothing);
//   serve.warm_p50_ok      the warm single-client median round trip — client
//                          encode, socket hop, server cache hit, response
//                          decode — stays under 1 ms (the paper's "resident
//                          JIT beats process spawn" premise, measured);
//   serve.shed_total       admission control under the 8-client burst sheds
//                          with explicit verdicts; the clients' bounded retry
//                          absorbs every shed (zero lost requests).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "batch/batch.h"
#include "batch/cache.h"
#include "bench_util.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace {

namespace fs = std::filesystem;

struct Script {
  std::string name;
  std::string source;
};

std::string SyntheticScript(int i) {
  std::string s = "# serve corpus " + std::to_string(i) + "\n";
  s += "PREFIX=/srv/app" + std::to_string(i) + "\n";
  s += "for f in a b c d; do\n  echo \"$PREFIX/$f\"\ndone\n";
  s += "if test -d \"$PREFIX\"; then\n  rm -r \"$PREFIX/stale\"\nfi\n";
  s += "cat conf | grep key" + std::to_string(i) + " | sort | uniq -c\n";
  return s;
}

std::vector<Script> LoadCorpus() {
  const char* env = std::getenv("SASH_SCRIPTS_DIR");
  fs::path dir = env != nullptr ? env : "examples/scripts";
  std::error_code ec;
  if (env == nullptr && !fs::is_directory(dir, ec)) {
    dir = "../examples/scripts";  // Run from the build root.
  }
  std::vector<Script> corpus;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().extension() != ".sh") {
      continue;
    }
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    corpus.push_back({entry.path().filename().string(), buf.str()});
  }
  std::sort(corpus.begin(), corpus.end(),
            [](const Script& a, const Script& b) { return a.name < b.name; });
  if (corpus.empty()) {
    for (int i = 0; i < 8; ++i) {
      corpus.push_back({"synthetic_" + std::to_string(i) + ".sh", SyntheticScript(i)});
    }
  }
  return corpus;
}

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

sash::serve::RpcRequest AnalyzeRequest(const Script& script, int64_t id) {
  sash::serve::RpcRequest req;
  req.op = "analyze";
  req.id = id;
  req.name = script.name;
  req.script = script.source;
  req.use_cache = true;
  return req;
}

struct SoakOutcome {
  std::vector<int64_t> latencies_us;  // One entry per successful request.
  int64_t failed = 0;
  int64_t wall_us = 0;
};

// `clients` threads, each with its own connection, each issuing
// `per_client` warm analyze requests round-robin over the corpus. Bounded
// retry is on: a shed or a chaos-dropped accept costs latency, never a
// request.
SoakOutcome RunSoak(const std::string& socket_path, const std::vector<Script>& corpus,
                    int clients, int per_client) {
  SoakOutcome outcome;
  std::vector<std::vector<int64_t>> lat(clients);
  std::atomic<int64_t> failed{0};
  const int64_t start = NowUs();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      sash::serve::ClientOptions copt;
      copt.socket_path = socket_path;
      copt.connect_attempts = 8;
      copt.backoff_initial_ms = 1;
      copt.backoff_max_ms = 50;
      sash::serve::Client client(copt);
      lat[c].reserve(per_client);
      for (int i = 0; i < per_client; ++i) {
        const Script& script = corpus[(c + i) % corpus.size()];
        const int64_t t0 = NowUs();
        sash::serve::CallResult r = client.Call(AnalyzeRequest(script, c * 100000 + i));
        const int64_t t1 = NowUs();
        if (r.ok && r.response.status == sash::serve::kStatusOk) {
          lat[c].push_back(t1 - t0);
        } else {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  outcome.wall_us = NowUs() - start;
  outcome.failed = failed.load();
  for (auto& v : lat) {
    outcome.latencies_us.insert(outcome.latencies_us.end(), v.begin(), v.end());
  }
  std::sort(outcome.latencies_us.begin(), outcome.latencies_us.end());
  return outcome;
}

int64_t Percentile(const std::vector<int64_t>& sorted, double p) {
  if (sorted.empty()) {
    return 0;
  }
  size_t idx = static_cast<size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

void PrintResult() {
  std::vector<Script> corpus = LoadCorpus();
  fs::path dir = fs::temp_directory_path() / ("sash_bench_serve_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  fs::path cache_dir = dir / "cache";
  std::string socket_path = (dir / "s.sock").string();

  // Cold local pass: populates the shared cache and records the reference
  // bytes every warm via response must match.
  sash::batch::BatchOptions opt;
  opt.use_cache = true;
  opt.cache_dir = cache_dir;
  sash::batch::Cache cache(cache_dir);
  std::vector<sash::batch::FileResult> cold;
  cold.reserve(corpus.size());
  for (const Script& script : corpus) {
    cold.push_back(sash::batch::AnalyzeSourceCached(opt, script.name, script.source, &cache,
                                                    nullptr, nullptr));
  }

  sash::serve::ServerOptions options;
  options.socket_path = socket_path;
  options.jobs = 4;
  options.batch.use_cache = true;
  options.batch.cache_dir = cache_dir;
  sash::serve::Server server(std::move(options));
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "bench_serve: cannot start server: %s\n", error.c_str());
    sash::bench::Metric("serve.warm_identical", 0);
    sash::bench::Metric("serve.warm_p50_ok", 0);
    return;
  }

  // S1a: byte identity. One warm via request per corpus script, compared to
  // the cold local reference.
  int64_t identical = 0;
  {
    sash::serve::ClientOptions copt;
    copt.socket_path = socket_path;
    sash::serve::Client client(copt);
    for (size_t i = 0; i < corpus.size(); ++i) {
      sash::serve::CallResult r = client.Call(AnalyzeRequest(corpus[i], static_cast<int64_t>(i)));
      if (r.ok && r.response.status == sash::serve::kStatusOk && r.response.cached &&
          r.response.report_json == cold[i].report_json &&
          r.response.report_text == cold[i].report_text) {
        ++identical;
      }
    }
  }
  const bool warm_identical = identical == static_cast<int64_t>(corpus.size());

  // S1b: warm latency and throughput as client concurrency scales. The
  // single-client p50 is the floor-guarded number; the 8-client burst also
  // exercises admission (shed + retry) on small max_pending configs.
  constexpr int kPerClient = 200;
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"clients", "requests", "failed", "wall ms", "req/s", "p50 us", "p99 us"});
  int64_t warm_p50_us = 0;
  int64_t soak_failed = 0;
  for (int clients : {1, 2, 4, 8}) {
    SoakOutcome soak = RunSoak(socket_path, corpus, clients, kPerClient);
    const int64_t total = static_cast<int64_t>(soak.latencies_us.size());
    const int64_t p50 = Percentile(soak.latencies_us, 0.50);
    const int64_t p99 = Percentile(soak.latencies_us, 0.99);
    const int64_t rps =
        soak.wall_us > 0 ? total * 1'000'000 / soak.wall_us : 0;
    rows.push_back({std::to_string(clients), std::to_string(total), std::to_string(soak.failed),
                    std::to_string(soak.wall_us / 1000), std::to_string(rps),
                    std::to_string(p50), std::to_string(p99)});
    if (clients == 1) {
      warm_p50_us = p50;
    }
    soak_failed += soak.failed;
    sash::bench::Metric("serve.p50_us.c" + std::to_string(clients), p50);
    sash::bench::Metric("serve.p99_us.c" + std::to_string(clients), p99);
    sash::bench::Metric("serve.rps.c" + std::to_string(clients), rps);
  }
  sash::bench::PrintTable(
      "S1: warm resident-server soak over " + std::to_string(corpus.size()) +
          " scripts x " + std::to_string(kPerClient) + " requests/client",
      rows);

  server.Stop();
  sash::serve::ServerStats stats = server.stats();
  for (const auto& [name, value] : server.StatValues()) {
    sash::bench::Metric(name, value);
  }

  // S1c: isolation overhead. The same warm corpus through a server whose
  // every request forks an rlimit-capped worker (--isolate). The delta vs
  // the in-process warm p50 is the price of crash containment: one fork +
  // one pipe round trip per request, cache hit included. The floor only
  // demands the overhead stays in fork territory (single-digit
  // milliseconds), not that it is free.
  int64_t isolate_p50_us = 0;
  int64_t isolate_failed = -1;
  {
    std::string iso_socket = (dir / "iso.sock").string();
    sash::serve::ServerOptions iso;
    iso.socket_path = iso_socket;
    iso.jobs = 4;
    iso.batch.use_cache = true;
    iso.batch.cache_dir = cache_dir;
    iso.batch.isolate = true;
    iso.batch.max_rss_mb = 1024;
    sash::serve::Server iso_server(std::move(iso));
    if (iso_server.Start(&error)) {
      SoakOutcome soak = RunSoak(iso_socket, corpus, /*clients=*/1, kPerClient);
      isolate_p50_us = Percentile(soak.latencies_us, 0.50);
      isolate_failed = soak.failed;
      std::vector<std::vector<std::string>> iso_rows;
      iso_rows.push_back({"mode", "p50 us", "p99 us", "failed"});
      iso_rows.push_back({"in-process warm", std::to_string(warm_p50_us), "-", "0"});
      iso_rows.push_back({"isolated worker (fork/request)", std::to_string(isolate_p50_us),
                          std::to_string(Percentile(soak.latencies_us, 0.99)),
                          std::to_string(soak.failed)});
      sash::bench::PrintTable("S1c: crash-containment overhead (--isolate, warm cache)",
                              iso_rows);
      iso_server.Stop();
    } else {
      std::fprintf(stderr, "bench_serve: cannot start isolated server: %s\n", error.c_str());
    }
  }
  const bool isolate_ok =
      isolate_failed == 0 && isolate_p50_us > 0 && isolate_p50_us < 25000;

  std::vector<std::vector<std::string>> summary;
  summary.push_back({"check", "value", "expected"});
  summary.push_back({"warm responses byte-identical to local",
                     std::to_string(identical) + "/" + std::to_string(corpus.size()),
                     "all"});
  summary.push_back({"warm 1-client p50", std::to_string(warm_p50_us) + " us", "< 1000 us"});
  summary.push_back({"soak requests failed", std::to_string(soak_failed), "0"});
  summary.push_back({"server shed (answered + retried)", std::to_string(stats.shed), "-"});
  summary.push_back({"connections poisoned", std::to_string(stats.malformed), "0"});
  summary.push_back({"isolated-worker warm p50", std::to_string(isolate_p50_us) + " us",
                     "< 25000 us, 0 failed"});
  sash::bench::PrintTable("S1 summary: robustness invariants", summary);

  sash::bench::Metric("serve.warm_identical", warm_identical ? 1 : 0);
  sash::bench::Metric("serve.warm_p50_us", warm_p50_us);
  sash::bench::Metric("serve.warm_p50_ok", warm_p50_us > 0 && warm_p50_us < 1000 ? 1 : 0);
  sash::bench::Metric("serve.soak_failed", soak_failed);
  sash::bench::Metric("serve.shed_total", stats.shed);
  sash::bench::Metric("serve.responses_total", stats.responses);
  sash::bench::Metric("serve.isolate_p50_us", isolate_p50_us);
  sash::bench::Metric("serve.isolate_overhead_ok", isolate_ok ? 1 : 0);

  fs::remove_all(dir);
}

// The raw protocol round trip with no analysis behind it: encode, unix-socket
// hop, event-loop dispatch, pool hop, response write, decode. This is the
// floor under every warm request's latency.
void BM_PingRoundtrip(benchmark::State& state) {
  static fs::path* dir = [] {
    auto* d = new fs::path(fs::temp_directory_path() /
                           ("sash_bench_ping_" + std::to_string(::getpid())));
    fs::create_directories(*d);
    return d;
  }();
  static sash::serve::Server* server = [] {
    sash::serve::ServerOptions options;
    options.socket_path = (*dir / "ping.sock").string();
    options.jobs = 2;
    options.warmup = false;
    options.batch.use_cache = false;
    auto* s = new sash::serve::Server(std::move(options));
    std::string error;
    if (!s->Start(&error)) {
      std::fprintf(stderr, "bench_serve: ping server failed: %s\n", error.c_str());
    }
    return s;
  }();
  sash::serve::ClientOptions copt;
  copt.socket_path = server->options().socket_path;
  sash::serve::Client client(copt);
  sash::serve::RpcRequest ping;
  ping.op = "ping";
  int64_t id = 0;
  for (auto _ : state) {
    ping.id = ++id;
    sash::serve::CallResult r = client.Call(ping);
    benchmark::DoNotOptimize(r.ok);
    if (!r.ok) {
      state.SkipWithError("ping round trip failed");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PingRoundtrip)->Unit(benchmark::kMicrosecond);

// One warm cached analyze through the full stack, for the timing loop next
// to the table's percentile view of the same number.
void BM_WarmAnalyzeViaSocket(benchmark::State& state) {
  static fs::path* dir = [] {
    auto* d = new fs::path(fs::temp_directory_path() /
                           ("sash_bench_warm_" + std::to_string(::getpid())));
    fs::create_directories(*d);
    return d;
  }();
  static std::vector<Script>* corpus = new std::vector<Script>(LoadCorpus());
  static sash::serve::Server* server = [] {
    sash::serve::ServerOptions options;
    options.socket_path = (*dir / "warm.sock").string();
    options.jobs = 2;
    options.batch.use_cache = true;
    options.batch.cache_dir = *dir / "cache";
    auto* s = new sash::serve::Server(std::move(options));
    std::string error;
    if (!s->Start(&error)) {
      std::fprintf(stderr, "bench_serve: warm server failed: %s\n", error.c_str());
    }
    return s;
  }();
  sash::serve::ClientOptions copt;
  copt.socket_path = server->options().socket_path;
  sash::serve::Client client(copt);
  int64_t id = 0;
  for (auto _ : state) {
    const Script& script = (*corpus)[static_cast<size_t>(id) % corpus->size()];
    sash::serve::CallResult r = client.Call(AnalyzeRequest(script, ++id));
    benchmark::DoNotOptimize(r.ok);
    if (!r.ok) {
      state.SkipWithError("warm analyze round trip failed");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WarmAnalyzeViaSocket)->Unit(benchmark::kMicrosecond);

}  // namespace

SASH_BENCH_MAIN(PrintResult)
