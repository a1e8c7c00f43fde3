#include "batch/cache.h"

#include <errno.h>
#include <fcntl.h>
#include <stdio.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/version.h"
#include "obs/journal.h"
#include "obs/trace.h"
#include "mining/man_corpus.h"
#include "util/faultinject.h"
#include "util/sha256.h"

namespace sash::batch {

namespace {

// Key-material framing: length-prefix every component so concatenations
// cannot collide ("ab"+"c" vs "a"+"bc").
void Feed(util::Sha256* h, std::string_view part) {
  std::string len = std::to_string(part.size()) + ":";
  h->Update(len);
  h->Update(part);
}

// Checksum of an entry's logical content. Framed like key material so field
// boundaries cannot alias; any byte that matters to a warm replay is covered.
std::string EntryChecksum(const AnalysisEntry& entry) {
  util::Sha256 h;
  Feed(&h, entry.report_text);
  Feed(&h, entry.report_json);
  Feed(&h, std::to_string(entry.warnings_or_worse));
  Feed(&h, entry.degraded_reason);
  return h.HexDigest();
}

}  // namespace

bool EnsureDirectories(const std::filesystem::path& dir) {
  if (dir.empty()) {
    return true;
  }
  std::filesystem::path accum;
  for (const std::filesystem::path& part : dir) {
    accum /= part;
    // mkdir each prefix directly: 0 and EEXIST are both success (EEXIST is
    // the concurrent-creation race this function exists to absorb). Any
    // other error — or EEXIST hiding a non-directory — is caught by the
    // authoritative check below rather than guessed at from errno.
    ::mkdir(accum.c_str(), 0777);
  }
  std::error_code ec;
  return std::filesystem::is_directory(dir, ec);
}

std::string OptionsFingerprint(const core::AnalyzerOptions& options) {
  std::ostringstream s;
  s << "lint=" << options.enable_lint << ";symex=" << options.enable_symex
    << ";stream=" << options.enable_stream_types << ";annot=" << options.apply_annotations
    << ";idem=" << options.enable_idempotence_check
    << ";idem_cap=" << options.idempotence_state_cap
    << ";coach=" << options.enable_optimization_coach
    // max_input_bytes deterministically shapes the report (too-large inputs
    // degrade to an empty one); the cancel token does not participate — its
    // effects are wall-clock-dependent and such reports are never cached.
    << ";max_in=" << options.max_input_bytes;
  const symex::EngineOptions& e = options.engine;
  s << ";e.max_states=" << e.max_states << ";e.unroll=" << e.loop_unroll
    << ";e.depth=" << e.max_call_depth << ";e.for=" << e.max_for_iterations
    << ";e.path=" << e.script_path_pattern << ";e.pos=" << e.positional_params
    << ";e.unset=" << e.report_unset_vars << ";e.merge=" << e.merge_identical_states
    << ";e.lib=" << (e.library == nullptr ? "builtin" : "custom");
  for (const auto& [var, pattern] : e.var_patterns) {
    s << ";e.var:" << var << "=" << pattern;
  }
  const lint::LintOptions& l = options.lint;
  s << ";l=" << l.unquoted_var << l.rm_var_path << l.cd_no_guard << l.backtick << l.useless_cat
    << l.echo_sub << l.read_no_r << l.portability;
  return s.str();
}

std::string SpecCorpusFingerprint() {
  // The corpus is a compile-time constant, so hash it once per process.
  static const std::string fingerprint = [] {
    util::Sha256 h;
    for (const auto& [name, text] : mining::ManCorpus()) {
      Feed(&h, name);
      Feed(&h, text);
    }
    return h.HexDigest();
  }();
  return fingerprint;
}

std::string AnalysisKey(std::string_view script_content, const core::AnalyzerOptions& options,
                        std::string_view annotations_text) {
  util::Sha256 h;
  Feed(&h, "analysis");
  Feed(&h, core::kVersion);
  Feed(&h, OptionsFingerprint(options));
  Feed(&h, annotations_text);
  Feed(&h, SpecCorpusFingerprint());
  Feed(&h, script_content);
  return h.HexDigest();
}

std::string MineKey(std::string_view command, std::string_view man_text) {
  util::Sha256 h;
  Feed(&h, "mine");
  Feed(&h, core::kVersion);
  Feed(&h, command);
  Feed(&h, man_text);
  return h.HexDigest();
}

std::string EncodeAnalysisEntry(std::string_view key, const AnalysisEntry& entry) {
  obs::JsonWriter w;
  w.BeginObject();
  w.KV("schema", kCacheSchema);
  w.KV("kind", "analysis");
  w.KV("key", key);
  w.KV("sash", core::kVersion);
  w.KV("warnings_or_worse", entry.warnings_or_worse);
  w.KV("degraded_reason", entry.degraded_reason);
  w.KV("checksum", EntryChecksum(entry));
  w.KV("report_text", entry.report_text);
  w.Key("report").Raw(entry.report_json);
  w.EndObject();
  return w.Take();
}

std::optional<AnalysisEntry> DecodeAnalysisEntry(std::string_view payload) {
  std::optional<obs::JsonValue> doc = obs::JsonValue::Parse(payload);
  if (!doc.has_value() || !doc->is_object()) {
    return std::nullopt;
  }
  const obs::JsonValue* schema = doc->Find("schema");
  if (schema == nullptr || !schema->is_string() || schema->string != kCacheSchema) {
    return std::nullopt;
  }
  const obs::JsonValue* warnings = doc->Find("warnings_or_worse");
  const obs::JsonValue* text = doc->Find("report_text");
  const obs::JsonValue* report = doc->Find("report");
  const obs::JsonValue* degraded = doc->Find("degraded_reason");
  const obs::JsonValue* checksum = doc->Find("checksum");
  if (warnings == nullptr || !warnings->is_number() || text == nullptr || !text->is_string() ||
      report == nullptr || !report->is_object() || degraded == nullptr ||
      !degraded->is_string() || checksum == nullptr || !checksum->is_string()) {
    return std::nullopt;
  }
  AnalysisEntry entry;
  entry.warnings_or_worse = static_cast<int64_t>(warnings->number);
  entry.report_text = text->string;
  entry.degraded_reason = degraded->string;
  // Re-serialize the report value: WriteJsonValue round-trips the writer's
  // own output exactly (member order preserved, integral numbers intact), so
  // the bytes match what the cold run produced.
  obs::JsonWriter w;
  obs::WriteJsonValue(*report, &w);
  entry.report_json = w.Take();
  // A flipped byte anywhere in the logical content fails here; the caller
  // treats nullopt as a miss and recomputes.
  if (checksum->string != EntryChecksum(entry)) {
    return std::nullopt;
  }
  return entry;
}

Cache::Cache(std::filesystem::path root, obs::Registry* metrics)
    : root_(root.empty() ? DefaultRoot() : std::move(root)), metrics_(metrics) {
  if (metrics_ != nullptr) {
    hits_ = metrics_->counter("cache.hits");
    misses_ = metrics_->counter("cache.misses");
    retries_ = metrics_->counter("cache.retries");
    write_failures_ = metrics_->counter("cache.write_failures");
    readonly_gauge_ = metrics_->gauge("cache.readonly");
  }
}

std::filesystem::path Cache::DefaultRoot() {
  if (const char* dir = std::getenv("SASH_CACHE_DIR"); dir != nullptr && *dir != '\0') {
    return dir;
  }
  if (const char* xdg = std::getenv("XDG_CACHE_HOME"); xdg != nullptr && *xdg != '\0') {
    return std::filesystem::path(xdg) / "sash";
  }
  if (const char* home = std::getenv("HOME"); home != nullptr && *home != '\0') {
    return std::filesystem::path(home) / ".cache" / "sash";
  }
  return std::filesystem::temp_directory_path() / "sash-cache";
}

std::filesystem::path Cache::EntryPath(std::string_view kind, std::string_view key) const {
  return root_ / kind / (std::string(key) + ".json");
}

std::optional<std::string> Cache::Get(std::string_view kind, std::string_view key) {
  // File I/O is a span, not a lock wait: slow disk shows up on the
  // timeline, never in the contention table.
  obs::Span span(obs::EventJournal::Global(), "cache.read");
  std::filesystem::path path = EntryPath(kind, key);
  util::FaultDecision fault;
  if (util::FaultInjector::enabled()) {
    fault = util::FaultInjector::Check(util::FaultSite::kCacheRead, path.string());
    util::FaultInjector::ApplyDelay(fault);
    if (fault.action == util::FaultAction::kFail) {
      // Simulated unreadable entry: exactly the real miss path below.
      if (misses_ != nullptr) {
        misses_->Add(1);
      }
      return std::nullopt;
    }
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (misses_ != nullptr) {
      misses_->Add(1);
    }
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string payload = buf.str();
  // Simulated torn/bit-flipped entry: the checksum in the payload makes the
  // decoder reject it, so downstream sees a corrupt-entry miss.
  util::FaultInjector::ApplyPayloadFault(fault, &payload);
  if (hits_ != nullptr) {
    hits_->Add(1);
  }
  return payload;
}

bool Cache::Put(std::string_view kind, std::string_view key, std::string_view payload) {
  // Persistent-exhaustion short-circuit: once a full disk flipped the cache
  // read-only, later writes fail immediately — no temp file, no backoff
  // sleeps. The failure still counts (a dashboard watching
  // cache.write_failures must see the true uninstalled-entry count).
  if (read_only_.load(std::memory_order_acquire)) {
    if (write_failures_ != nullptr) {
      write_failures_->Add(1);
    }
    return false;
  }
  obs::Span span(obs::EventJournal::Global(), "cache.write");
  std::filesystem::path path = EntryPath(kind, key);
  EnsureDirectories(path.parent_path());
  // Cache write failures are overwhelmingly transient (EINTR, a briefly full
  // tmpfs, an injected fault); a short exponential backoff recovers them
  // without bothering the caller. Permanent failure just means no caching —
  // except disk exhaustion, which will not improve between backoff sleeps:
  // ENOSPC/EDQUOT on the final attempt flips the whole cache read-only.
  int backoff_ms = 1;
  bool disk_full = false;
  for (int attempt = 0; attempt < kPutAttempts; ++attempt) {
    if (attempt > 0) {
      if (retries_ != nullptr) {
        retries_->Add(1);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms *= 4;
    }
    disk_full = false;
    if (PutOnce(path, payload, attempt, &disk_full)) {
      return true;
    }
  }
  if (disk_full) {
    EnterReadOnly();
  }
  return false;
}

void Cache::EnterReadOnly() {
  bool expected = false;
  if (!read_only_.compare_exchange_strong(expected, true, std::memory_order_acq_rel)) {
    return;  // Another writer already degraded the cache; warn once total.
  }
  std::fprintf(stderr,
               "sash: cache device out of space (ENOSPC/EDQUOT) at %s; "
               "cache is read-only for the rest of this run\n",
               root_.c_str());
  if (readonly_gauge_ != nullptr) {
    readonly_gauge_->Set(1);
  }
  if (obs::EventJournal* journal = obs::EventJournal::Global(); journal != nullptr) {
    journal->Emit(obs::EventKind::kMark, "cache.readonly", 1);
  }
}

bool Cache::PutOnce(const std::filesystem::path& path, std::string_view payload, int attempt,
                    bool* disk_full) {
  // The fault detail carries the attempt index so a rate-gated rule rolls
  // independently per attempt — injected write failures are transient, which
  // is what the retry loop exists to absorb. An "#nth" rule on the bare path
  // still matches every attempt via the substring match.
  util::FaultDecision write_fault;
  util::FaultDecision rename_fault;
  std::string torn_payload;
  if (util::FaultInjector::enabled()) {
    std::string detail = path.string() + "@" + std::to_string(attempt);
    write_fault = util::FaultInjector::Check(util::FaultSite::kCacheWrite, detail);
    util::FaultInjector::ApplyDelay(write_fault);
    if (write_fault.action == util::FaultAction::kFail ||
        write_fault.action == util::FaultAction::kEnospc) {
      // kFail simulates a transient error (the retry loop's food); kEnospc a
      // full disk — persistent by nature, so it reports through *disk_full
      // exactly like a real ENOSPC and drives the read-only degradation.
      if (write_fault.action == util::FaultAction::kEnospc && disk_full != nullptr) {
        *disk_full = true;
      }
      if (write_failures_ != nullptr) {
        write_failures_->Add(1);
      }
      return false;
    }
    if (write_fault.action == util::FaultAction::kTorn ||
        write_fault.action == util::FaultAction::kCorrupt) {
      // Simulated torn write: a corrupt entry lands on disk "successfully";
      // only the read-side checksum stands between it and a wrong replay.
      torn_payload = std::string(payload);
      util::FaultInjector::ApplyPayloadFault(write_fault, &torn_payload);
      payload = torn_payload;
    }
    rename_fault = util::FaultInjector::Check(util::FaultSite::kCacheRename, detail);
  }
  std::error_code ec;
  // Unique temp name per writer: concurrent writers of the same key each
  // rename their own complete file over the target (last writer wins; all
  // payloads for one key are identical by construction).
  static std::atomic<uint64_t> seq{0};
  std::ostringstream tmp_name;
  tmp_name << path.filename().string() << ".tmp." << ::getpid() << "."
           << seq.fetch_add(1, std::memory_order_relaxed);
  std::filesystem::path tmp = path.parent_path() / tmp_name.str();
  // Raw-fd I/O rather than ofstream: the failing syscall's errno is the
  // signal that separates "retry this" (EINTR, EIO blips) from "the disk is
  // full, stop paying backoff for every entry" (ENOSPC/EDQUOT), and iostream
  // error states do not preserve it reliably.
  auto note_disk_full = [disk_full](int err) {
    if (disk_full != nullptr && (err == ENOSPC || err == EDQUOT)) {
      *disk_full = true;
    }
  };
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd < 0) {
    note_disk_full(errno);
    if (write_failures_ != nullptr) {
      write_failures_->Add(1);
    }
    return false;
  }
  size_t off = 0;
  bool write_ok = true;
  while (off < payload.size()) {
    ssize_t n = ::write(fd, payload.data() + off, payload.size() - off);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      note_disk_full(errno);
      write_ok = false;
      break;
    }
    off += static_cast<size_t>(n);
  }
  ::close(fd);
  if (!write_ok) {
    std::filesystem::remove(tmp, ec);
    if (write_failures_ != nullptr) {
      write_failures_->Add(1);
    }
    return false;
  }
  if (rename_fault.action == util::FaultAction::kFail) {
    std::filesystem::remove(tmp, ec);
    if (write_failures_ != nullptr) {
      write_failures_->Add(1);
    }
    return false;
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    note_disk_full(ec.value());
    std::filesystem::remove(tmp, ec);
    if (write_failures_ != nullptr) {
      write_failures_->Add(1);
    }
    return false;
  }
  return true;
}

}  // namespace sash::batch
