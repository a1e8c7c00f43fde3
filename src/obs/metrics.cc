#include "obs/metrics.h"

namespace sash::obs {

int Histogram::BucketIndex(int64_t sample) {
  if (sample <= 0) {
    return 0;
  }
  int idx = 1;
  while (sample > 1 && idx < kBuckets - 1) {
    sample >>= 1;
    ++idx;
  }
  return idx;
}

void Histogram::Observe(int64_t sample) {
  buckets_[BucketIndex(sample)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(sample, std::memory_order_relaxed);
  int64_t cur = min_.load(std::memory_order_relaxed);
  while (sample < cur && !min_.compare_exchange_weak(cur, sample, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (sample > cur && !max_.compare_exchange_weak(cur, sample, std::memory_order_relaxed)) {
  }
}

int64_t Histogram::min() const {
  int64_t v = min_.load(std::memory_order_relaxed);
  return v == INT64_MAX ? 0 : v;
}

int64_t Histogram::PercentileUpperBound(double p) const {
  int64_t total = count();
  if (total == 0) {
    return 0;
  }
  // Rank of the percentile sample, 1-based.
  int64_t rank = static_cast<int64_t>(p / 100.0 * static_cast<double>(total) + 0.5);
  if (rank < 1) {
    rank = 1;
  }
  if (rank > total) {
    rank = total;
  }
  int64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += bucket(i);
    if (seen >= rank) {
      // Upper bound of bucket i: 2^(i-1) holds samples < 2^i; bucket 0 is 0.
      return i == 0 ? 0 : int64_t{1} << i;
    }
  }
  return max();
}

Counter* Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return it->second.get();
}

Gauge* Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* Registry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>()).first;
  }
  return it->second.get();
}

MetricsSnapshot Registry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace(name, c->value());
  }
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace(name, g->value());
  }
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::HistogramStats s;
    s.count = h->count();
    s.sum = h->sum();
    s.min = h->min();
    s.max = h->max();
    s.p50 = h->PercentileUpperBound(50);
    s.p90 = h->PercentileUpperBound(90);
    s.p99 = h->PercentileUpperBound(99);
    snap.histograms.emplace(name, s);
  }
  return snap;
}

void WriteSnapshotJson(const MetricsSnapshot& snapshot, JsonWriter* w) {
  w->BeginObject();
  w->Key("counters").BeginObject();
  for (const auto& [name, value] : snapshot.counters) {
    w->KV(name, value);
  }
  w->EndObject();
  w->Key("gauges").BeginObject();
  for (const auto& [name, value] : snapshot.gauges) {
    w->KV(name, value);
  }
  w->EndObject();
  w->Key("histograms").BeginObject();
  for (const auto& [name, h] : snapshot.histograms) {
    w->Key(name).BeginObject();
    w->KV("count", h.count);
    w->KV("sum", h.sum);
    w->KV("min", h.min);
    w->KV("max", h.max);
    w->KV("p50", h.p50);
    w->KV("p90", h.p90);
    w->KV("p99", h.p99);
    w->EndObject();
  }
  w->EndObject();
  w->EndObject();
}

void Registry::WriteJson(JsonWriter* w) const { WriteSnapshotJson(Snapshot(), w); }

std::string Registry::ToJson() const {
  JsonWriter w;
  WriteJson(&w);
  return w.Take();
}

}  // namespace sash::obs
