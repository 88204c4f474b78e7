// CacheStore: the content-addressed on-disk store behind the
// incremental monthly-update engine.
//
// Entries live under `<directory>/<namespace>/<key-hex>.snap`, where the
// namespace names the artifact kind ("em" for fitted medication-model
// snapshots, "series" for per-series analysis reports, "drill" for
// drill-down aggregate verdicts) and the key is a
// cache::Hasher fingerprint of everything the artifact depends on. A
// key therefore identifies its content: entries are never updated in
// place and never invalidated explicitly — a changed input simply hashes
// to a different key and the stale entry is ignored. Each entry is a
// sealed file (cache/sealed_file.h) of kind kCacheEntry.
//
// Failure policy: the cache is an accelerator, not a source of truth.
// Every read failure — missing entry, truncated file, checksum or
// version mismatch, I/O error — surfaces as a non-OK Result that the
// caller treats as a miss and recomputes cold; write failures are
// reported but never abort a run. Concurrent writers are safe: Put
// publishes through a per-thread temp file and a rename.
//
// When a MetricsRegistry is attached, the store exports
// cache.hits / cache.misses / cache.read_errors / cache.bytes_read /
// cache.bytes_written. Hit and miss totals are deterministic for a
// fixed starting cache state (each lookup's outcome is a pure function
// of the inputs and the state), so they are safe to assert on in tests.

#ifndef MICTREND_CACHE_CACHE_STORE_H_
#define MICTREND_CACHE_CACHE_STORE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace mic::obs {
class Counter;
class MetricsRegistry;
}  // namespace mic::obs

namespace mic::cache {

/// What a run is allowed to do with the store. kRead serves hits but
/// never writes (useful against a read-only shared cache); kWrite
/// populates without consulting (a "cold" run that seeds the cache);
/// kReadWrite is the normal incremental mode.
enum class CacheMode { kOff, kRead, kWrite, kReadWrite };

/// Parses the --cache flag value {off, read, write, rw}.
Result<CacheMode> ParseCacheMode(std::string_view text);
std::string_view CacheModeName(CacheMode mode);

class CacheStore {
 public:
  /// The store is inert until Open() succeeds. `metrics` (not owned,
  /// may be null) receives the cache.* counters.
  CacheStore(std::string directory, CacheMode mode,
             obs::MetricsRegistry* metrics = nullptr);

  /// Creates the cache directory if needed. Fails with IoError when the
  /// path cannot be created or is not a directory.
  Status Open();

  bool can_read() const;
  bool can_write() const;
  CacheMode mode() const { return mode_; }
  const std::string& directory() const { return directory_; }

  /// Looks up an entry. Returns the payload on a verified hit; NotFound
  /// on a miss, including an entry of another format version;
  /// FailedPrecondition/IoError when an entry exists but is corrupt or
  /// unreadable (counted as cache.read_errors). Callers treat every
  /// non-OK result as "recompute cold".
  Result<std::vector<std::uint8_t>> Get(std::string_view ns,
                                        std::uint64_t key);

  /// Stores an entry. No-op (OK) when the mode does not allow writes.
  /// Concurrent Put calls for distinct keys never interfere; a lost
  /// race on the same key leaves either writer's identical bytes.
  Status Put(std::string_view ns, std::uint64_t key,
             const std::vector<std::uint8_t>& payload);

 private:
  std::string EntryPath(std::string_view ns, std::uint64_t key) const;

  std::string directory_;
  CacheMode mode_;
  bool opened_ = false;
  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Counter* read_errors_ = nullptr;
  obs::Counter* bytes_read_ = nullptr;
  obs::Counter* bytes_written_ = nullptr;
};

}  // namespace mic::cache

#endif  // MICTREND_CACHE_CACHE_STORE_H_
