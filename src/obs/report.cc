#include "obs/report.h"

namespace sash::obs {

std::string BenchReportJson(std::string_view bench_name, const std::vector<BenchRun>& runs,
                            const NamedValues& metrics, int64_t peak_rss_kb) {
  JsonWriter w;
  w.BeginObject();
  w.KV("schema", kBenchSchema);
  w.KV("bench", bench_name);
  w.Key("runs").BeginArray();
  for (const BenchRun& r : runs) {
    w.BeginObject();
    w.KV("name", r.name);
    w.KV("iterations", r.iterations);
    w.KV("real_time_ns", r.real_time_ns);
    w.KV("cpu_time_ns", r.cpu_time_ns);
    w.EndObject();
  }
  w.EndArray();
  // Cache effectiveness is a first-class bench result (the warm-path story):
  // surfaced at the top level, mirroring the cache.* entries.
  auto value_or_zero = [&metrics](std::string_view name) {
    auto it = metrics.find(name);
    return it == metrics.end() ? int64_t{0} : it->second;
  };
  w.Key("cache").BeginObject();
  w.KV("hits", value_or_zero("cache.hits"));
  w.KV("misses", value_or_zero("cache.misses"));
  w.EndObject();
  w.KV("peak_rss_kb", peak_rss_kb);
  w.Key("metrics").BeginObject();
  w.Key("counters").BeginObject().EndObject();
  w.Key("gauges").BeginObject();
  for (const auto& [name, value] : metrics) {
    w.KV(name, value);
  }
  w.EndObject();
  w.Key("histograms").BeginObject().EndObject();
  w.EndObject();
  w.EndObject();
  return w.Take();
}

namespace {

void RequireNumberMembers(const JsonValue& obj, std::string_view where,
                          const std::vector<std::string>& keys, std::vector<std::string>* out) {
  for (const std::string& key : keys) {
    const JsonValue* v = obj.Find(key);
    if (v == nullptr || !v->is_number()) {
      out->push_back(std::string(where) + ": missing or non-numeric '" + key + "'");
    }
  }
}

}  // namespace

std::vector<std::string> ValidateBenchReport(const JsonValue& doc) {
  std::vector<std::string> problems;
  if (!doc.is_object()) {
    problems.push_back("document is not a JSON object");
    return problems;
  }
  const JsonValue* schema = doc.Find("schema");
  if (schema == nullptr || !schema->is_string() || schema->string != kBenchSchema) {
    problems.push_back(std::string("schema must be \"") + kBenchSchema + "\"");
  }
  const JsonValue* bench = doc.Find("bench");
  if (bench == nullptr || !bench->is_string() || bench->string.empty()) {
    problems.push_back("bench must be a non-empty string");
  }
  const JsonValue* runs = doc.Find("runs");
  if (runs == nullptr || !runs->is_array()) {
    problems.push_back("runs must be an array");
  } else {
    for (size_t i = 0; i < runs->array.size(); ++i) {
      const JsonValue& run = runs->array[i];
      std::string where = "runs[" + std::to_string(i) + "]";
      if (!run.is_object()) {
        problems.push_back(where + " is not an object");
        continue;
      }
      const JsonValue* name = run.Find("name");
      if (name == nullptr || !name->is_string() || name->string.empty()) {
        problems.push_back(where + ": name must be a non-empty string");
      }
      RequireNumberMembers(run, where, {"iterations", "real_time_ns", "cpu_time_ns"}, &problems);
    }
  }
  const JsonValue* cache = doc.Find("cache");
  if (cache == nullptr || !cache->is_object()) {
    problems.push_back("cache must be an object");
  } else {
    RequireNumberMembers(*cache, "cache", {"hits", "misses"}, &problems);
  }
  const JsonValue* rss = doc.Find("peak_rss_kb");
  if (rss == nullptr || !rss->is_number()) {
    problems.push_back("peak_rss_kb must be a number");
  }
  const JsonValue* metrics = doc.Find("metrics");
  if (metrics == nullptr || !metrics->is_object()) {
    problems.push_back("metrics must be an object");
  } else {
    for (const char* section : {"counters", "gauges", "histograms"}) {
      const JsonValue* sec = metrics->Find(section);
      if (sec == nullptr || !sec->is_object()) {
        problems.push_back(std::string("metrics.") + section + " must be an object");
        continue;
      }
      for (const auto& [name, value] : sec->object) {
        if (std::string_view(section) == "histograms") {
          if (!value.is_object()) {
            problems.push_back("metrics.histograms." + name + " is not an object");
            continue;
          }
          RequireNumberMembers(value, "metrics.histograms." + name,
                               {"count", "sum", "min", "max", "p50", "p90", "p99"}, &problems);
        } else if (!value.is_number()) {
          problems.push_back(std::string("metrics.") + section + "." + name + " is not numeric");
        }
      }
    }
  }
  return problems;
}

}  // namespace sash::obs
