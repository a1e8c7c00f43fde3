#include "obs/lockprobe.h"

#include <algorithm>

#include "obs/journal.h"

namespace sash::obs {

std::atomic<bool> LockProbes::armed_{false};

namespace {

// Intrusive singly-linked list of every registered site. Registration is
// rare (one per static site) and guarded; traversal (snapshot/reset) walks
// the list via acquire loads, so it needs no lock.
std::atomic<LockSite*> g_sites_head{nullptr};
std::mutex g_register_mu;  // Deliberately NOT a ProfiledMutex.

struct SiteNode {
  LockSite site;
  SiteNode* next;
  explicit SiteNode(const char* name) : site(name), next(nullptr) {}
};

// Same bucketing as Histogram::BucketIndex: bucket 0 holds <= 0, bucket
// i > 0 holds [2^(i-1), 2^i).
int WaitBucketIndex(int64_t ns) {
  if (ns <= 0) {
    return 0;
  }
  int bucket = 1;
  while (bucket < LockSite::kWaitBuckets - 1 && ns >= (int64_t{1} << bucket)) {
    ++bucket;
  }
  return bucket;
}

int64_t BucketUpperBound(int index) {
  return index == 0 ? 0 : int64_t{1} << index;
}

// p in [0,100]: upper bound of the bucket containing the p-th percentile.
int64_t PercentileFromBuckets(const int64_t* buckets, int64_t count, double p) {
  if (count <= 0) {
    return 0;
  }
  int64_t rank = static_cast<int64_t>(p / 100.0 * static_cast<double>(count - 1)) + 1;
  int64_t seen = 0;
  for (int i = 0; i < LockSite::kWaitBuckets; ++i) {
    seen += buckets[i];
    if (seen >= rank) {
      return BucketUpperBound(i);
    }
  }
  return BucketUpperBound(LockSite::kWaitBuckets - 1);
}

}  // namespace

void LockSite::RecordWait(int64_t ns) {
  contended.fetch_add(1, std::memory_order_relaxed);
  wait_ns.fetch_add(ns, std::memory_order_relaxed);
  wait_buckets[WaitBucketIndex(ns)].fetch_add(1, std::memory_order_relaxed);
  int64_t cur = max_wait_ns.load(std::memory_order_relaxed);
  while (cur < ns && !max_wait_ns.compare_exchange_weak(cur, ns, std::memory_order_relaxed)) {
  }
}

LockSite* LockProbes::Register(const char* name) {
  std::lock_guard<std::mutex> lock(g_register_mu);
  // Intentionally leaked: sites are created from function-local statics in
  // subsystems (interner, pattern cache) that outlive every destructor.
  auto* node = new SiteNode(name);
  node->next = reinterpret_cast<SiteNode*>(g_sites_head.load(std::memory_order_relaxed));
  g_sites_head.store(reinterpret_cast<LockSite*>(node), std::memory_order_release);
  return &node->site;
}

std::vector<LockSiteSnapshot> LockProbes::Snapshot() {
  // Sites sharing a name (e.g. every pool worker's deque lock registers
  // "pool.worker") merge into one logical entry.
  struct Agg {
    LockSiteSnapshot snap;
    int64_t buckets[LockSite::kWaitBuckets] = {};
  };
  std::vector<Agg> aggs;
  for (auto* node = reinterpret_cast<SiteNode*>(g_sites_head.load(std::memory_order_acquire));
       node != nullptr; node = node->next) {
    const LockSite& s = node->site;
    Agg* agg = nullptr;
    for (Agg& existing : aggs) {
      if (existing.snap.name == s.name) {
        agg = &existing;
        break;
      }
    }
    if (agg == nullptr) {
      aggs.emplace_back();
      agg = &aggs.back();
      agg->snap.name = s.name;
    }
    agg->snap.acquisitions += s.acquisitions.load(std::memory_order_relaxed);
    agg->snap.contended += s.contended.load(std::memory_order_relaxed);
    agg->snap.wait_ns += s.wait_ns.load(std::memory_order_relaxed);
    agg->snap.hold_ns += s.hold_ns.load(std::memory_order_relaxed);
    agg->snap.max_wait_ns =
        std::max(agg->snap.max_wait_ns, s.max_wait_ns.load(std::memory_order_relaxed));
    for (int i = 0; i < LockSite::kWaitBuckets; ++i) {
      agg->buckets[i] += s.wait_buckets[i].load(std::memory_order_relaxed);
    }
  }
  std::vector<LockSiteSnapshot> out;
  out.reserve(aggs.size());
  for (Agg& agg : aggs) {
    agg.snap.wait_p50_ns = PercentileFromBuckets(agg.buckets, agg.snap.contended, 50.0);
    agg.snap.wait_p99_ns = PercentileFromBuckets(agg.buckets, agg.snap.contended, 99.0);
    out.push_back(std::move(agg.snap));
  }
  std::sort(out.begin(), out.end(), [](const LockSiteSnapshot& a, const LockSiteSnapshot& b) {
    if (a.wait_ns != b.wait_ns) {
      return a.wait_ns > b.wait_ns;
    }
    return a.name < b.name;
  });
  return out;
}

void LockProbes::Reset() {
  for (auto* node = reinterpret_cast<SiteNode*>(g_sites_head.load(std::memory_order_acquire));
       node != nullptr; node = node->next) {
    LockSite& s = node->site;
    s.acquisitions.store(0, std::memory_order_relaxed);
    s.contended.store(0, std::memory_order_relaxed);
    s.wait_ns.store(0, std::memory_order_relaxed);
    s.hold_ns.store(0, std::memory_order_relaxed);
    s.max_wait_ns.store(0, std::memory_order_relaxed);
    for (int i = 0; i < LockSite::kWaitBuckets; ++i) {
      s.wait_buckets[i].store(0, std::memory_order_relaxed);
    }
  }
}

ScopedWaitProbe::~ScopedWaitProbe() {
  if (site_ == nullptr) {
    return;
  }
  int64_t waited = LockProbes::NowNanos() - start_ns_;
  site_->RecordAcquisition();
  if (waited > threshold_ns_) {
    site_->RecordWait(waited);
    if (EventJournal* j = EventJournal::Global()) {
      j->Emit(EventKind::kLockWait, site_->name, waited);
    }
  }
}

void ProfiledMutex::lock() {
  if (!LockProbes::armed()) {
    mu_.lock();
    hold_start_ns_ = 0;
    return;
  }
  if (mu_.try_lock()) {
    hold_start_ns_ = site_->RecordAcquisition() ? LockProbes::NowNanos() : 0;
    return;
  }
  LockContended();
}

void ProfiledMutex::LockContended() {
  int64_t t0 = LockProbes::NowNanos();
  mu_.lock();
  int64_t now = LockProbes::NowNanos();
  bool sample_hold = site_->RecordAcquisition();
  site_->RecordWait(now - t0);
  if (EventJournal* j = EventJournal::Global()) {
    j->Emit(EventKind::kLockWait, site_->name, now - t0);
  }
  hold_start_ns_ = sample_hold ? now : 0;
}

bool ProfiledMutex::try_lock() {
  if (!mu_.try_lock()) {
    return false;
  }
  if (LockProbes::armed()) {
    hold_start_ns_ = site_->RecordAcquisition() ? LockProbes::NowNanos() : 0;
  } else {
    hold_start_ns_ = 0;
  }
  return true;
}

void ProfiledMutex::unlock() {
  if (hold_start_ns_ != 0) {
    site_->RecordHold(LockProbes::NowNanos() - hold_start_ns_);
    hold_start_ns_ = 0;
  }
  mu_.unlock();
}

}  // namespace sash::obs
