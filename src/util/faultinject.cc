#include "util/faultinject.h"

#include <chrono>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>

namespace sash::util {
namespace {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

uint64_t Fnv1a64(std::string_view s) {
  uint64_t h = 0xCBF29CE484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return h;
}

struct RuleState {
  std::atomic<int64_t> occurrences{0};
  std::atomic<int64_t> fired{0};
};

struct ActivePlan {
  FaultPlan plan;
  // One counter pair per rule; sized at install, so Check never allocates.
  std::unique_ptr<RuleState[]> rule_state;
  std::atomic<int64_t> total_fires{0};
};

std::mutex g_install_mutex;
ActivePlan* g_active = nullptr;  // Leaked on purpose: Check may run at exit.

bool ParseAction(std::string_view text, FaultAction* action) {
  if (text == "fail") {
    *action = FaultAction::kFail;
  } else if (text == "torn") {
    *action = FaultAction::kTorn;
  } else if (text == "corrupt") {
    *action = FaultAction::kCorrupt;
  } else if (text == "delay") {
    *action = FaultAction::kDelay;
  } else if (text == "crash") {
    *action = FaultAction::kCrash;
  } else if (text == "enospc") {
    *action = FaultAction::kEnospc;
  } else {
    return false;
  }
  return true;
}

bool ParseSite(std::string_view text, FaultSite* site) {
  for (int i = 0; i < kNumFaultSites; ++i) {
    FaultSite s = static_cast<FaultSite>(i);
    if (text == FaultSiteName(s)) {
      *site = s;
      return true;
    }
  }
  return false;
}

bool ParseInt(std::string_view text, int32_t* out) {
  if (text.empty() || text.size() > 9) {
    return false;
  }
  int32_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') {
      return false;
    }
    value = value * 10 + (c - '0');
  }
  *out = value;
  return true;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t' || s.front() == '\n')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\n')) {
    s.remove_suffix(1);
  }
  return s;
}

}  // namespace

std::string_view FaultSiteName(FaultSite site) {
  switch (site) {
    case FaultSite::kCacheRead:
      return "cache.read";
    case FaultSite::kCacheWrite:
      return "cache.write";
    case FaultSite::kCacheRename:
      return "cache.rename";
    case FaultSite::kPoolTask:
      return "pool.task";
    case FaultSite::kAnalyzeFile:
      return "analyze.file";
    case FaultSite::kServeAccept:
      return "serve.accept";
    case FaultSite::kServeRead:
      return "serve.read";
    case FaultSite::kServeWrite:
      return "serve.write";
    case FaultSite::kServeDispatch:
      return "serve.dispatch";
    case FaultSite::kClientConnect:
      return "client.connect";
  }
  return "?";
}

bool FaultPlan::Parse(std::string_view text, FaultPlan* plan, std::string* error) {
  plan->rules.clear();
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find(';', start);
    if (end == std::string_view::npos) {
      end = text.size();
    }
    std::string_view spec = Trim(text.substr(start, end - start));
    start = end + 1;
    if (spec.empty()) {
      if (start > text.size()) break;
      continue;
    }
    FaultRule rule;
    // Split off "=action" first; the remainder is site + modifiers.
    size_t eq = spec.find('=');
    if (eq != std::string_view::npos) {
      if (!ParseAction(Trim(spec.substr(eq + 1)), &rule.action)) {
        if (error) *error = "unknown fault action in rule: " + std::string(spec);
        return false;
      }
      spec = Trim(spec.substr(0, eq));
    }
    size_t site_end = spec.find_first_of("~#%@");
    std::string_view site_text = spec.substr(0, site_end);
    if (!ParseSite(Trim(site_text), &rule.site)) {
      if (error) *error = "unknown fault site in rule: " + std::string(spec);
      return false;
    }
    std::string_view mods =
        site_end == std::string_view::npos ? std::string_view() : spec.substr(site_end);
    while (!mods.empty()) {
      char kind = mods.front();
      mods.remove_prefix(1);
      size_t next = mods.find_first_of(kind == '~' ? "#%@" : "~#%@");
      std::string_view value = mods.substr(0, next);
      mods = next == std::string_view::npos ? std::string_view() : mods.substr(next);
      bool ok = true;
      switch (kind) {
        case '~':
          rule.match = std::string(value);
          break;
        case '#':
          ok = ParseInt(value, &rule.nth) && rule.nth > 0;
          break;
        case '%':
          ok = ParseInt(value, &rule.per_mille) && rule.per_mille <= 1000;
          break;
        case '@':
          ok = ParseInt(value, &rule.delay_ms);
          break;
        default:
          ok = false;
      }
      if (!ok) {
        if (error) {
          *error = std::string("bad '") + kind + "' modifier in rule: " + std::string(spec);
        }
        return false;
      }
    }
    plan->rules.push_back(std::move(rule));
  }
  if (plan->rules.empty()) {
    if (error) *error = "fault plan has no rules";
    return false;
  }
  return true;
}

FaultPlan FaultPlan::DefaultChaos(uint64_t seed) {
  // Only sites the pipeline must absorb with byte-identical functional
  // results: cache faults demote to misses or skipped writes, and pool
  // delays reorder nothing observable. analyze.file is deliberately absent
  // — it changes outcomes.
  FaultPlan plan;
  plan.seed = seed;
  auto rate = [&plan](FaultSite site, FaultAction action, int32_t per_mille,
                      int32_t delay_ms = 2) {
    FaultRule rule;
    rule.site = site;
    rule.action = action;
    rule.per_mille = per_mille;
    rule.delay_ms = delay_ms;
    plan.rules.push_back(rule);
  };
  rate(FaultSite::kCacheRead, FaultAction::kTorn, 15);
  rate(FaultSite::kCacheRead, FaultAction::kCorrupt, 15);
  rate(FaultSite::kCacheRead, FaultAction::kFail, 10);
  rate(FaultSite::kCacheWrite, FaultAction::kFail, 15);
  rate(FaultSite::kCacheRename, FaultAction::kFail, 10);
  rate(FaultSite::kPoolTask, FaultAction::kDelay, 10, /*delay_ms=*/1);
  // Serve-path sites the request loop must absorb without changing any
  // functional result: a delayed dispatch is invisible, a dropped accept or
  // a refused connect is retried by the client's backoff loop.
  rate(FaultSite::kServeDispatch, FaultAction::kDelay, 10, /*delay_ms=*/1);
  rate(FaultSite::kServeAccept, FaultAction::kFail, 10);
  rate(FaultSite::kClientConnect, FaultAction::kFail, 10);
  return plan;
}

std::atomic<int> FaultInjector::state_{kUninitialized};

void FaultInjector::Install(const FaultPlan& plan) {
  std::lock_guard<std::mutex> lock(g_install_mutex);
  ActivePlan* next = new ActivePlan;
  next->plan = plan;
  next->rule_state = std::make_unique<RuleState[]>(plan.rules.size());
  delete g_active;
  g_active = next;
  state_.store(kEnabled, std::memory_order_release);
}

void FaultInjector::Uninstall() {
  std::lock_guard<std::mutex> lock(g_install_mutex);
  delete g_active;
  g_active = nullptr;
  state_.store(kDisabled, std::memory_order_release);
}

bool FaultInjector::InitFromEnv() {
  std::lock_guard<std::mutex> lock(g_install_mutex);
  int s = state_.load(std::memory_order_acquire);
  if (s != kUninitialized) {
    return s == kEnabled;
  }
  const char* plan_text = std::getenv("SASH_FAULT_PLAN");
  const char* seed_text = std::getenv("SASH_FAULT_SEED");
  uint64_t seed = seed_text ? std::strtoull(seed_text, nullptr, 10) : 0;
  FaultPlan plan;
  bool have_plan = false;
  if (plan_text && *plan_text) {
    std::string error;
    have_plan = FaultPlan::Parse(plan_text, &plan, &error);
    plan.seed = seed;
  } else if (seed_text && *seed_text) {
    plan = FaultPlan::DefaultChaos(seed);
    have_plan = true;
  }
  if (have_plan) {
    ActivePlan* next = new ActivePlan;
    next->plan = std::move(plan);
    next->rule_state = std::make_unique<RuleState[]>(next->plan.rules.size());
    g_active = next;
    state_.store(kEnabled, std::memory_order_release);
    return true;
  }
  state_.store(kDisabled, std::memory_order_release);
  return false;
}

FaultDecision FaultInjector::Check(FaultSite site, std::string_view detail) {
  FaultDecision decision;
  if (!enabled()) {
    return decision;
  }
  ActivePlan* active = g_active;
  if (active == nullptr) {
    return decision;
  }
  for (size_t i = 0; i < active->plan.rules.size(); ++i) {
    const FaultRule& rule = active->plan.rules[i];
    if (rule.site != site) {
      continue;
    }
    if (!rule.match.empty() && detail.find(rule.match) == std::string_view::npos) {
      continue;
    }
    RuleState& st = active->rule_state[i];
    const int64_t occurrence = st.occurrences.fetch_add(1, std::memory_order_relaxed) + 1;
    if (rule.nth > 0 && occurrence != rule.nth) {
      continue;
    }
    // The roll hashes (seed, site, detail, rule) but NOT the occurrence
    // index, so rate-gated rules pick the same victims regardless of thread
    // scheduling — determinism is the whole point of the harness.
    const uint64_t roll =
        SplitMix64(active->plan.seed ^ Fnv1a64(detail) ^
                   (static_cast<uint64_t>(site) + 1) * 0x9E3779B97F4A7C15ULL ^
                   (i + 1) * 0xD1B54A32D192ED03ULL);
    if (rule.nth == 0 && rule.per_mille > 0 &&
        roll % 1000 >= static_cast<uint64_t>(rule.per_mille)) {
      continue;
    }
    if (rule.max_fires > 0 &&
        st.fired.load(std::memory_order_relaxed) >= rule.max_fires) {
      continue;
    }
    st.fired.fetch_add(1, std::memory_order_relaxed);
    active->total_fires.fetch_add(1, std::memory_order_relaxed);
    decision.action = rule.action;
    decision.delay_ms = rule.delay_ms;
    decision.roll = roll;
    return decision;
  }
  return decision;
}

void FaultInjector::ApplyDelay(const FaultDecision& decision) {
  if (decision.action == FaultAction::kDelay && decision.delay_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(decision.delay_ms));
  }
}

void FaultInjector::ApplyPayloadFault(const FaultDecision& decision, std::string* payload) {
  if (payload == nullptr || payload->empty()) {
    return;
  }
  if (decision.action == FaultAction::kTorn) {
    payload->resize(decision.roll % payload->size());
  } else if (decision.action == FaultAction::kCorrupt) {
    const size_t index = decision.roll % payload->size();
    (*payload)[index] ^= static_cast<char>((decision.roll >> 8) | 1);
  }
}

int64_t FaultInjector::fires() {
  ActivePlan* active = g_active;
  return active != nullptr ? active->total_fires.load(std::memory_order_relaxed) : 0;
}

}  // namespace sash::util
