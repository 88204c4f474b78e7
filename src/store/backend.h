// Pluggable read backends for the persistent claim store (mic::store).
//
// A store directory holds checksummed binary segments (see
// claim_store.h for the layout); how a segment's bytes get into memory
// is the backend's business. Two implementations ship:
//
//   - MmapBackend: maps the file read-only and hands out a zero-copy
//     view. This is the fast path for repeated "open the world" loads —
//     the page cache keeps warm segments resident across runs.
//   - FileBackend: reads the file into an owned buffer with plain
//     stream I/O. It exists so the mmap path is optional per platform:
//     kAuto resolves to mmap where POSIX mmap is available and degrades
//     to file I/O everywhere else, with identical results.
//
// Writes and the envelope are backend-independent: every file is a
// sealed file (cache/sealed_file.h, kind kStoreFile), published through
// a temp file and a rename; a torn, truncated, or bit-flipped file fails
// the unseal, which callers treat as "this store is unusable, fall back
// to CSV".

#ifndef MICTREND_STORE_BACKEND_H_
#define MICTREND_STORE_BACKEND_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/result.h"

namespace mic::store {

/// Which read backend a store uses. kAuto picks mmap when the platform
/// supports it, plain file I/O otherwise.
enum class BackendKind { kAuto, kMmap, kFile };

/// Parses the --store flag value {auto, mmap, file}.
Result<BackendKind> ParseBackendKind(std::string_view text);
std::string_view BackendKindName(BackendKind kind);

/// True when this build can memory-map segments (POSIX mmap).
bool MmapAvailable();

/// A read-only view of one segment file's bytes. `owner` keeps the
/// backing storage (mapping or buffer) alive for the view's lifetime.
struct SegmentView {
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;
  std::shared_ptr<const void> owner;
};

/// How segment bytes get into memory. Implementations must be safe to
/// call from one thread at a time (the store serializes its I/O).
class StoreBackend {
 public:
  virtual ~StoreBackend() = default;
  /// Stable name for logs and metrics ("mmap" / "file").
  virtual std::string_view name() const = 0;
  /// Brings the file at `path` into memory. NotFound when the file does
  /// not exist; IoError on any read/map failure.
  virtual Result<SegmentView> Read(const std::string& path) = 0;
};

/// Builds the backend for `kind`. kMmap fails with NotImplemented on
/// platforms without mmap; kAuto never fails.
Result<std::unique_ptr<StoreBackend>> MakeBackend(BackendKind kind);

}  // namespace mic::store

#endif  // MICTREND_STORE_BACKEND_H_
