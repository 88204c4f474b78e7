// Sealed files: the one on-disk envelope shared by the cache's entries
// and the claim store's segment, dictionary and MANIFEST files.
//
// A sealed file is a 24-byte little-endian header — magic, format
// version, payload checksum, payload size — followed by the payload.
// The magic names the kind of file, so a cache entry is never read as
// a store file or the reverse. The checksum guards against torn writes
// and bit rot, not attackers: a word-at-a-time FNV fold (one multiply
// per 8 payload bytes) keeps verification cheap enough to run on every
// load. Files are published through a per-thread temp file and a
// rename, so a reader sees either the previous file or the whole new
// one, never a torn one.
//
// What a failed check means is the caller's business: the cache treats
// every failure as a miss, the store (a source of truth) as an error.

#ifndef MICTREND_CACHE_SEALED_FILE_H_
#define MICTREND_CACHE_SEALED_FILE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace mic::cache {

/// What a sealed file holds. Each kind has its own magic and format
/// version: cache entries are "MICC" version 2, store files "MICS"
/// version 1.
enum class SealedKind { kCacheEntry, kStoreFile };

inline constexpr std::size_t kSealedHeaderSize = 4 + 4 + 8 + 8;

/// `payload` wrapped in `kind`'s header.
std::vector<std::uint8_t> Seal(SealedKind kind,
                               std::span<const std::uint8_t> payload);

/// Checks the header of the sealed file `file` and returns a view of
/// its payload (no copy). NotFound when the format version is not
/// `kind`'s current one; FailedPrecondition on a short file, a wrong
/// magic, a size mismatch or a checksum mismatch. `path` only names the
/// file in messages.
Result<std::span<const std::uint8_t>> Unseal(
    SealedKind kind, std::span<const std::uint8_t> file,
    std::string_view path);

/// Writes `bytes` to `path` through a temp file named after the writing
/// thread, then renames it into place.
Status PublishFile(const std::string& path,
                   std::span<const std::uint8_t> bytes);

/// The whole file at `path`. NotFound when it cannot be opened, IoError
/// when the read fails part way.
Result<std::vector<std::uint8_t>> ReadFile(const std::string& path);

}  // namespace mic::cache

#endif  // MICTREND_CACHE_SEALED_FILE_H_
