// Deterministic fault-injection harness. Research analyzers die of
// unmaintained failure paths; this harness makes the failure paths testable
// by letting a seeded plan inject I/O errors, torn/truncated payloads, and
// slow tasks at named hook points (the batch cache's read/write/rename path,
// the thread pool, the resident server) without any real filesystem damage.
//
// A plan is a list of rules. Each rule names a site and decides, per
// occurrence and fully deterministically (splitmix64 over seed × site ×
// occurrence index), whether to fire and with which action:
//
//   cache.write#1=fail                 // fail the 1st cache write, only
//   cache.read~foo.sh=torn             // truncate reads whose detail has foo.sh
//   pool.task%50@3=delay               // delay 5% of pool tasks by 3ms
//   analyze.file#3=fail;cache.read%100=corrupt   // rules separated by ';'
//
// Rule grammar:  site[~match][#nth][%per_mille][@delay_ms][=action]
//   site:    cache.read | cache.write | cache.rename | pool.task |
//            analyze.file | serve.accept | serve.read | serve.write |
//            serve.dispatch | client.connect
//   ~match:  substring that the hook's detail string (usually a path) must
//            contain; absent = any
//   #nth:    fire only on the nth matching occurrence (1-based); absent and
//            no %: fire on every matching occurrence
//   %n:      fire with probability n/1000 per occurrence (deterministic roll)
//   @ms:     delay milliseconds for the delay action (default 2)
//   action:  fail | torn | corrupt | delay | crash | enospc (default fail)
//
// Activation: tests call FaultInjector::Install(plan) / Uninstall(); outside
// of that, the environment is consulted once — SASH_FAULT_PLAN holds a plan
// string, or SASH_FAULT_SEED alone selects the built-in chaos plan (low-rate
// faults at every gracefully-degrading site). When neither is set the hooks
// compile down to one relaxed atomic load.
#ifndef SASH_UTIL_FAULTINJECT_H_
#define SASH_UTIL_FAULTINJECT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sash::util {

enum class FaultSite : uint8_t {
  kCacheRead = 0,
  kCacheWrite,
  kCacheRename,
  kPoolTask,
  kAnalyzeFile,
  // The resident server's request path (PR 7): every layer a torn client,
  // full disk, or scheduling hiccup can hit. fail on serve.accept drops one
  // incoming connection (clients retry), serve.read/serve.write poison one
  // connection (never the daemon), serve.dispatch fails one request with a
  // well-formed error response, client.connect simulates a refused/absent
  // socket for the client's backoff loop.
  kServeAccept,
  kServeRead,
  kServeWrite,
  kServeDispatch,
  kClientConnect,
};
inline constexpr int kNumFaultSites = 10;

std::string_view FaultSiteName(FaultSite site);

enum class FaultAction : uint8_t {
  kNone = 0,
  kFail,     // The hooked operation reports failure.
  kTorn,     // The payload is truncated mid-entry.
  kCorrupt,  // One payload byte is flipped.
  kDelay,    // The operation is delayed by delay_ms.
  kCrash,    // Inside a sandboxed worker (util::InWorker()): a real SIGSEGV,
             // exercising process-level crash containment. Outside a worker
             // the site degrades to kFail — an uncontained test process must
             // never be sacrificed by its own harness.
  kEnospc,   // cache.write only: the write fails as if the disk were full
             // (persistent, not transient), driving the cache's read-only
             // degradation instead of the retry loop.
};

struct FaultRule {
  FaultSite site = FaultSite::kCacheRead;
  std::string match;        // Substring of the hook detail; empty = any.
  int32_t nth = 0;          // 1-based occurrence to fire on; 0 = not occurrence-gated.
  int32_t per_mille = 0;    // Deterministic firing rate out of 1000; 0 with
                            // nth==0 means fire on every match.
  FaultAction action = FaultAction::kFail;
  int32_t delay_ms = 2;     // For kDelay.
  int32_t max_fires = 0;    // Stop firing after this many hits; 0 = unlimited.
};

struct FaultPlan {
  uint64_t seed = 0;
  std::vector<FaultRule> rules;

  // Parses the plan grammar above. Returns false and sets *error on
  // malformed input.
  static bool Parse(std::string_view text, FaultPlan* plan, std::string* error);

  // The built-in chaos plan used when only SASH_FAULT_SEED is set: low-rate
  // faults confined to sites the pipeline must absorb gracefully (cache I/O
  // demotes to miss/skip, pool delays are invisible, spec corruption demotes
  // to a mine-cache miss) — functional results stay byte-identical.
  static FaultPlan DefaultChaos(uint64_t seed);
};

// The outcome of consulting the injector at a hook point.
struct FaultDecision {
  FaultAction action = FaultAction::kNone;
  int32_t delay_ms = 0;
  uint64_t roll = 0;  // Deterministic per-occurrence value; salts payload faults.

  explicit operator bool() const { return action != FaultAction::kNone; }
};

// Process-global injector. Install/Uninstall are for tests and must not race
// with in-flight Check calls from other threads (install before starting the
// pool, uninstall after joining it); Check itself is thread-safe.
class FaultInjector {
 public:
  static void Install(const FaultPlan& plan);
  static void Uninstall();

  // True when a plan is active (including one picked up from the
  // environment). One relaxed atomic load when idle.
  static bool enabled() {
    int s = state_.load(std::memory_order_acquire);
    if (s == kUninitialized) {
      return InitFromEnv();
    }
    return s == kEnabled;
  }

  // Consults the active plan at `site` for an operation described by
  // `detail` (usually a path). Returns the action to apply, kNone when idle.
  static FaultDecision Check(FaultSite site, std::string_view detail);

  // Sleeps for a kDelay decision; no-op for other actions.
  static void ApplyDelay(const FaultDecision& decision);

  // Mutates `payload` for kTorn (truncates to a roll-dependent prefix) or
  // kCorrupt (flips one roll-dependent byte). No-op for other actions or an
  // empty payload.
  static void ApplyPayloadFault(const FaultDecision& decision, std::string* payload);

  // Total faults fired since the last Install (observability + tests).
  static int64_t fires();

 private:
  enum : int { kUninitialized = 0, kDisabled = 1, kEnabled = 2 };
  static bool InitFromEnv();
  static std::atomic<int> state_;
};

}  // namespace sash::util

#endif  // SASH_UTIL_FAULTINJECT_H_
