// The metrics registry: named counters, gauges, and log-bucketed latency
// histograms shared by every analysis subsystem. All instruments are lock-free
// on the hot path (relaxed atomics); the registry itself locks only on
// creation and snapshot. A null registry pointer anywhere in the pipeline
// means "metrics off" and costs a single branch.
#ifndef SASH_OBS_METRICS_H_
#define SASH_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"

namespace sash::obs {

// A monotonically increasing count (commands executed, states forked, ...).
class Counter {
 public:
  void Add(int64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// A last-writer-wins instantaneous value (peak states, corpus size, ...).
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  // Raises the gauge to `value` if larger (for peaks under concurrency).
  void Max(int64_t value) {
    int64_t cur = value_.load(std::memory_order_relaxed);
    while (cur < value && !value_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
    }
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// A histogram over non-negative integer samples (latencies in nanoseconds,
// sizes, ...) with logarithmic base-2 buckets: bucket 0 holds samples <= 0,
// bucket i>0 holds samples in [2^(i-1), 2^i).
class Histogram {
 public:
  static constexpr int kBuckets = 48;

  void Observe(int64_t sample);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  int64_t min() const;  // 0 when empty.
  int64_t max() const { return max_.load(std::memory_order_relaxed); }
  int64_t bucket(int i) const { return buckets_[i].load(std::memory_order_relaxed); }

  // Upper bound of the bucket containing the p-th percentile (p in [0,100]).
  // An estimate — exact values are not retained.
  int64_t PercentileUpperBound(double p) const;

  // The bucket index a sample lands in (exposed for tests).
  static int BucketIndex(int64_t sample);

 private:
  std::atomic<int64_t> buckets_[kBuckets] = {};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> min_{INT64_MAX};
  std::atomic<int64_t> max_{0};
};

// A point-in-time copy of every instrument in a registry.
struct MetricsSnapshot {
  struct HistogramStats {
    int64_t count = 0;
    int64_t sum = 0;
    int64_t min = 0;
    int64_t max = 0;
    int64_t p50 = 0;
    int64_t p90 = 0;
    int64_t p99 = 0;
  };

  std::map<std::string, int64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramStats> histograms;

  bool empty() const { return counters.empty() && gauges.empty() && histograms.empty(); }
};

// Owns instruments by name. Instrument pointers are stable for the registry's
// lifetime; repeated lookups of the same name return the same instrument.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter* counter(std::string_view name);
  Gauge* gauge(std::string_view name);
  Histogram* histogram(std::string_view name);

  MetricsSnapshot Snapshot() const;

  // Serializes a snapshot as {"counters":{...},"gauges":{...},
  // "histograms":{name:{count,sum,min,max,p50,p90,p99}}}.
  void WriteJson(JsonWriter* w) const;
  std::string ToJson() const;

 private:
  // Guards the maps, not the instruments; hot paths hoist instrument handles
  // instead of taking this lock per operation.
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

// Serializes a snapshot (same schema as Registry::WriteJson).
void WriteSnapshotJson(const MetricsSnapshot& snapshot, JsonWriter* w);

}  // namespace sash::obs

#endif  // SASH_OBS_METRICS_H_
