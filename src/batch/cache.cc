#include "batch/cache.h"

#include <errno.h>
#include <fcntl.h>
#include <stdio.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "core/version.h"
#include "obs/journal.h"
#include "obs/trace.h"
#include "mining/man_corpus.h"
#include "util/faultinject.h"
#include "util/file.h"
#include "util/sha256.h"
#include "util/strings.h"

namespace sash::batch {

namespace {

// Key-material framing: length-prefix every component so concatenations
// cannot collide ("ab"+"c" vs "a"+"bc").
constexpr void Feed(util::Sha256* h, std::string_view part) {
  char digits[20] = {};
  size_t n = sizeof(digits);
  size_t len = part.size();
  do {
    digits[--n] = static_cast<char>('0' + len % 10);
    len /= 10;
  } while (len != 0);
  h->Update(std::string_view(digits + n, sizeof(digits) - n));
  h->Update(":");
  h->Update(part);
}

// Appends each argument as the ostream chain this replaced printed it:
// strings verbatim, integers in decimal, bools as 0/1 — so keys keep their
// bytes (batch_cache_test pins them).
void AppendOne(std::string* s, std::string_view text) { *s += text; }
void AppendOne(std::string* s, int64_t value) { *s += std::to_string(value); }
template <typename... Parts>
void Append(std::string* s, const Parts&... parts) {
  (AppendOne(s, parts), ...);
}

// Fingerprint of the spec corpus analysis depends on: the bundled man-page
// corpus (mining inputs) — the built-in ground-truth specs are compiled in
// and covered by the sash version component of every key. The corpus is
// compile-time data, so the compiler computes this and a key costs one hash
// of the script.
constexpr std::array<char, 64> kSpecCorpusFingerprint = [] {
  util::Sha256 h;
  for (const mining::ManPage& page : mining::kManPages) {
    Feed(&h, page.name);
    Feed(&h, page.text);
  }
  return h.HexChars();
}();

// Checksum of an entry's logical content. Framed like key material so field
// boundaries cannot alias; any byte that matters to a warm replay is covered.
std::array<char, 64> EntryChecksum(const AnalysisEntry& entry) {
  util::Sha256 h;
  Feed(&h, entry.report_text);
  Feed(&h, entry.report_json);
  Feed(&h, std::to_string(entry.warnings_or_worse));
  Feed(&h, entry.degraded_reason);
  return h.HexChars();
}

// Parses a non-negative decimal field of an entry header.
bool ParseSize(std::string_view field, size_t* out) {
  int64_t value = 0;
  if (!ParseInt64(field, &value) || value < 0) {
    return false;
  }
  *out = static_cast<size_t>(value);
  return true;
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
  std::string s;
  s.reserve(256);
  const symex::EngineOptions& e = options.engine;
  const lint::LintOptions& l = options.lint;
  // max_input_bytes deterministically shapes the report (too-large inputs
  // degrade to an empty one); the cancel token does not participate — its
  // effects are wall-clock-dependent and such reports are never cached.
  Append(&s, "lint=", options.enable_lint, ";symex=", options.enable_symex,
         ";stream=", options.enable_stream_types, ";annot=", options.apply_annotations,
         ";idem=", options.enable_idempotence_check, ";idem_cap=", options.idempotence_state_cap,
         ";coach=", options.enable_optimization_coach, ";max_in=", options.max_input_bytes);
  Append(&s, ";e.max_states=", e.max_states, ";e.unroll=", e.loop_unroll, ";e.depth=",
         e.max_call_depth, ";e.for=", e.max_for_iterations, ";e.path=", e.script_path_pattern,
         ";e.pos=", e.positional_params, ";e.unset=", e.report_unset_vars, ";e.merge=",
         e.merge_identical_states, ";e.lib=", e.library == nullptr ? "builtin" : "custom");
  for (const auto& [var, pattern] : e.var_patterns) {
    Append(&s, ";e.var:", var, "=", pattern);
  }
  Append(&s, ";l=", l.unquoted_var, l.rm_var_path, l.cd_no_guard, l.backtick, l.useless_cat,
         l.echo_sub, l.read_no_r, l.portability);
  return s;
}

std::string AnalysisKey(std::string_view script_content, const core::AnalyzerOptions& options,
                        std::string_view annotations_text) {
  util::Sha256 h;
  Feed(&h, "analysis");
  Feed(&h, core::kVersion);
  Feed(&h, OptionsFingerprint(options));
  Feed(&h, annotations_text);
  Feed(&h, std::string_view(kSpecCorpusFingerprint.data(), kSpecCorpusFingerprint.size()));
  Feed(&h, script_content);
  return h.HexDigest();
}

std::string EncodeAnalysisEntry(std::string_view /*key*/, const AnalysisEntry& entry) {
  // The key is the entry's file name; the header does not repeat it.
  const std::array<char, 64> checksum = EntryChecksum(entry);
  std::string out;
  out.reserve(128 + entry.report_json.size() + entry.report_text.size());
  out += kAnalysisCacheSchema;
  out += ' ';
  out.append(checksum.data(), checksum.size());
  out += ' ';
  out += std::to_string(entry.warnings_or_worse);
  out += ' ';
  out += std::to_string(entry.report_json.size());
  out += ' ';
  out += std::to_string(entry.report_text.size());
  if (!entry.degraded_reason.empty()) {
    out += ' ';
    out += entry.degraded_reason;
  }
  out += '\n';
  out += entry.report_json;
  out += entry.report_text;
  return out;
}

std::optional<AnalysisEntry> DecodeAnalysisEntry(std::string_view payload) {
  const size_t newline = payload.find('\n');
  if (newline == std::string_view::npos) {
    return std::nullopt;
  }
  // Header fields: schema, checksum, warnings_or_worse, json bytes and text
  // bytes, each ended by a space or the newline; whatever follows the fifth
  // space is the degraded reason.
  std::string_view rest = payload.substr(0, newline);
  std::string_view fields[5];
  bool more = true;
  for (std::string_view& field : fields) {
    if (!more) {
      return std::nullopt;
    }
    const size_t space = rest.find(' ');
    field = rest.substr(0, space);
    more = space != std::string_view::npos;
    rest = more ? rest.substr(space + 1) : std::string_view();
  }
  size_t json_bytes = 0;
  size_t text_bytes = 0;
  AnalysisEntry entry;
  if (fields[0] != kAnalysisCacheSchema || fields[1].size() != 64 ||
      !ParseInt64(fields[2], &entry.warnings_or_worse) || !ParseSize(fields[3], &json_bytes) ||
      !ParseSize(fields[4], &text_bytes) || (more && rest.empty())) {
    return std::nullopt;
  }
  // The lengths must account for every byte after the header: a truncated
  // or padded entry is a miss before any hashing.
  const std::string_view body = payload.substr(newline + 1);
  if (json_bytes > body.size() || text_bytes != body.size() - json_bytes) {
    return std::nullopt;
  }
  entry.report_json = body.substr(0, json_bytes);
  entry.report_text = body.substr(json_bytes);
  entry.degraded_reason = rest;
  // A flipped byte anywhere in the logical content fails here; the caller
  // treats nullopt as a miss and recomputes.
  const std::array<char, 64> checksum = EntryChecksum(entry);
  if (fields[1] != std::string_view(checksum.data(), checksum.size())) {
    return std::nullopt;
  }
  return entry;
}

Cache::Cache(std::filesystem::path root)
    : root_(root.empty() ? DefaultRoot() : std::move(root)) {}

Cache::Stats Cache::stats() const {
  Stats out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.retries = retries_.load(std::memory_order_relaxed);
  out.write_failures = write_failures_.load(std::memory_order_relaxed);
  out.corrupt_entries = corrupt_entries_.load(std::memory_order_relaxed);
  out.read_only = read_only();
  return out;
}

void AddCacheStats(const Cache::Stats& stats, obs::NamedValues* values) {
  (*values)["cache.hits"] = stats.hits;
  (*values)["cache.misses"] = stats.misses;
  (*values)["cache.retries"] = stats.retries;
  (*values)["cache.write_failures"] = stats.write_failures;
  (*values)["cache.corrupt_entries"] = stats.corrupt_entries;
  (*values)["cache.readonly"] = stats.read_only ? 1 : 0;
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
  // File I/O is a span: slow disk shows up on the timeline.
  obs::Span span(obs::EventJournal::Global(), "cache.read");
  std::filesystem::path path = EntryPath(kind, key);
  util::FaultDecision fault;
  if (util::FaultInjector::enabled()) {
    fault = util::FaultInjector::Check(util::FaultSite::kCacheRead, path.string());
    util::FaultInjector::ApplyDelay(fault);
    if (fault.action == util::FaultAction::kFail) {
      // Simulated unreadable entry: exactly the real miss path below.
      misses_.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
  }
  std::string payload;
  if (!util::ReadFile(path.string(), &payload)) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  // Simulated torn/bit-flipped entry: the checksum in the payload makes the
  // decoder reject it, so downstream sees a corrupt-entry miss.
  util::FaultInjector::ApplyPayloadFault(fault, &payload);
  const int64_t hits = hits_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (obs::EventJournal* journal = obs::EventJournal::Global(); journal != nullptr) {
    journal->Emit(obs::EventKind::kCounter, "cache.hits", hits);
  }
  return payload;
}

bool Cache::Put(std::string_view kind, std::string_view key, std::string_view payload) {
  // Persistent-exhaustion short-circuit: once a full disk flipped the cache
  // read-only, later writes fail immediately — no temp file, no backoff
  // sleeps. The failure still counts (a dashboard watching
  // cache.write_failures must see the true uninstalled-entry count).
  if (read_only_.load(std::memory_order_acquire)) {
    write_failures_.fetch_add(1, std::memory_order_relaxed);
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
      retries_.fetch_add(1, std::memory_order_relaxed);
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
      write_failures_.fetch_add(1, std::memory_order_relaxed);
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
  std::filesystem::path tmp =
      path.parent_path() / (path.filename().string() + ".tmp." + std::to_string(::getpid()) +
                            "." + std::to_string(seq.fetch_add(1, std::memory_order_relaxed)));
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
    write_failures_.fetch_add(1, std::memory_order_relaxed);
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
    write_failures_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (rename_fault.action == util::FaultAction::kFail) {
    std::filesystem::remove(tmp, ec);
    write_failures_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    note_disk_full(ec.value());
    std::filesystem::remove(tmp, ec);
    write_failures_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

}  // namespace sash::batch
