// The on-disk incremental analysis cache — the paper's §4 JIT↔AOT loop made
// concrete. An analysis report computed ahead of time is stored
// content-addressed so an invocation-time (JIT) lookup costs one hash plus
// one read, and re-analysis happens only when something the result actually
// depends on changed.
//
// Key definition (SHA-256, hex):
//   H(kind="analysis" ‖ sash version ‖ options fingerprint ‖ annotations ‖
//     spec-corpus fingerprint ‖ script content)
// so touching the script, the spec corpus, the analysis flags, or upgrading
// sash each invalidate exactly the affected entries. Entries are immutable
// files named <key>.json under <root>/<kind>/ (the name predates the v2
// analysis envelope, which is not JSON; keeping it lets a v2 write replace a
// v1 entry of the same key in place); writes go through a temp file
// and an atomic rename, so concurrent readers never observe a torn entry and
// concurrent writers of the same key are idempotent.
#ifndef SASH_BATCH_CACHE_H_
#define SASH_BATCH_CACHE_H_

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>

#include "core/analyzer.h"
#include "obs/obs.h"

namespace sash::batch {

// Schema tag of analysis cache entries: the first word of their header line.
inline constexpr char kAnalysisCacheSchema[] = "sash-cache-v2";

// Creates `dir` and any missing parents, treating a directory that appeared
// concurrently (EEXIST from another driver racing to create the same
// --cache-dir) as success — both racers must win. Returns false only when
// the path still is not a directory afterwards (a component exists as a
// file, or a real mkdir error). std::filesystem::create_directories is not
// used because its check-then-create window turns exactly this race into a
// spurious error on some implementations.
bool EnsureDirectories(const std::filesystem::path& dir);

// A stable fingerprint of every AnalyzerOptions field that can change the
// report. Extend this when AnalyzerOptions grows — a missed field means stale
// hits, which the differential test guards against for the known fields.
std::string OptionsFingerprint(const core::AnalyzerOptions& options);

// Cache key for one script's analysis under the given options.
// `annotations_text` is the external .sasht input ("" when none).
std::string AnalysisKey(std::string_view script_content, const core::AnalyzerOptions& options,
                        std::string_view annotations_text = {});

// One decoded analysis cache entry: everything a warm run needs to reproduce
// the cold run's output byte-for-byte without re-analyzing.
struct AnalysisEntry {
  std::string report_json;  // AnalysisReport::ToJson(nullptr) of the cold run.
  std::string report_text;  // AnalysisReport::ToString() of the cold run.
  int64_t warnings_or_worse = 0;  // Drives the exit code.
  // The cold run's degradation reason ("" when not degraded). Only
  // deterministic reasons are ever cached — a timeout is a property of one
  // machine at one moment, not of the (script, options) pair, so the driver
  // never Puts a timeout-degraded report.
  std::string degraded_reason;
};

// Envelope "sash-cache-v2": one header line, then the two reports verbatim.
//
//   sash-cache-v2 <checksum> <warnings_or_worse> <json bytes> <text bytes>[ <degraded_reason>]\n
//   <report_json><report_text>
//
// The checksum is a SHA-256 (hex) of the entry's logical content. Decode
// parses only the header, requires the two lengths to cover the body
// exactly, and recomputes the checksum, so a truncated, padded or
// bit-flipped entry (torn write, disk corruption) — or an entry in any other
// format, such as a v1 JSON document — decodes to nullopt: a miss, never a
// crash and never a silently wrong replay. The key is the entry's file name
// and is not repeated inside it. A degraded reason never contains a newline.
std::string EncodeAnalysisEntry(std::string_view key, const AnalysisEntry& entry);
std::optional<AnalysisEntry> DecodeAnalysisEntry(std::string_view payload);

class Cache {
 public:
  // The cache's own counts over its lifetime ("cache.*" in `--stats`).
  struct Stats {
    int64_t hits = 0;             // Gets that read an entry.
    int64_t misses = 0;           // Gets that found none (or an injected fault).
    int64_t retries = 0;          // Put attempts beyond each first.
    int64_t write_failures = 0;   // Failed attempts and refused Puts.
    int64_t corrupt_entries = 0;  // Read entries the caller could not decode.
    bool read_only = false;       // See Put.
  };

  // `root` empty selects DefaultRoot(). The directory is created lazily on
  // first Put.
  explicit Cache(std::filesystem::path root);

  // $SASH_CACHE_DIR, else $XDG_CACHE_HOME/sash, else $HOME/.cache/sash, else
  // a sash subdirectory of the system temp directory.
  static std::filesystem::path DefaultRoot();

  const std::filesystem::path& root() const { return root_; }

  // Reads the entry for `key` under `kind` (e.g. "analysis"); nullopt on
  // miss or an unreadable entry (counted as a miss). Each hit also journals
  // the running hit count as a "cache.hits" counter event on
  // EventJournal::Global() (the trace's "cache.hits" track).
  std::optional<std::string> Get(std::string_view kind, std::string_view key);

  // Counts an entry Get returned that the caller could not decode; the
  // caller treats it as a miss and recomputes.
  void CountCorrupt() { corrupt_entries_.fetch_add(1, std::memory_order_relaxed); }

  // Atomically installs `payload` for `key`, retrying transient I/O failures
  // with exponential backoff (kPutAttempts attempts; "cache.retries" counts
  // the extras). Returns false when every attempt failed (the cache is
  // best-effort: callers proceed without it).
  //
  // Resource-exhaustion degradation: when a write fails persistently with
  // ENOSPC/EDQUOT (a full disk does not get less full between backoff
  // sleeps), the cache flips to read-only for the rest of the run — one
  // warning on stderr, a "cache.readonly" journal mark, and every later Put
  // short-circuits without paying the retry backoff (write_failures still
  // counts each one). Gets are unaffected: warm entries keep serving.
  bool Put(std::string_view kind, std::string_view key, std::string_view payload);

  // True once a persistent disk-full condition demoted writes to no-ops.
  bool read_only() const { return read_only_.load(std::memory_order_acquire); }

  Stats stats() const;

  static constexpr int kPutAttempts = 3;

 private:
  bool PutOnce(const std::filesystem::path& path, std::string_view payload, int attempt,
               bool* disk_full);
  void EnterReadOnly();
  std::filesystem::path EntryPath(std::string_view kind, std::string_view key) const;

  std::filesystem::path root_;
  std::atomic<bool> read_only_{false};
  // Relaxed: Get/Put run on every batch task and count without a lock.
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> retries_{0};
  std::atomic<int64_t> write_failures_{0};
  std::atomic<int64_t> corrupt_entries_{0};
};

// Adds `stats` as "cache.{hits,misses,retries,write_failures,
// corrupt_entries,readonly}".
void AddCacheStats(const Cache::Stats& stats, obs::NamedValues* values);

}  // namespace sash::batch

#endif  // SASH_BATCH_CACHE_H_
