#include "cache/sealed_file.h"

#include <cstdio>
#include <fstream>
#include <functional>
#include <thread>

#include "cache/snapshot_io.h"

namespace mic::cache {
namespace {

struct SealedFormat {
  std::uint32_t magic;
  std::uint32_t version;
  const char* noun;  // Names the file in error messages.
};

// Cache entries moved to version 2 when their checksum became the
// word-at-a-time fold below; version-1 entries read as plain misses.
SealedFormat FormatOf(SealedKind kind) {
  switch (kind) {
    case SealedKind::kCacheEntry:
      return {0x4d494343, 2, "cache entry"};  // "MICC"
    case SealedKind::kStoreFile:
      return {0x4d494353, 1, "store file"};  // "MICS"
  }
  return {0, 0, "?"};
}

// FNV over the payload size, every full little-endian 8-byte word, and
// the zero-padded tail word (folded even when empty). Words are
// assembled byte by byte, so the digest is byte-order portable.
std::uint64_t Checksum(std::span<const std::uint8_t> payload) {
  constexpr std::uint64_t kFnvPrime = 1099511628211ull;
  const std::uint8_t* data = payload.data();
  const std::size_t size = payload.size();
  std::uint64_t state = 14695981039346656037ull;
  state = (state ^ size) * kFnvPrime;
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t word = 0;
    for (int b = 0; b < 8; ++b) {
      word |= static_cast<std::uint64_t>(data[i + b]) << (8 * b);
    }
    state = (state ^ word) * kFnvPrime;
  }
  std::uint64_t tail = 0;
  for (int b = 0; i + b < size; ++b) {
    tail |= static_cast<std::uint64_t>(data[i + b]) << (8 * b);
  }
  return (state ^ tail) * kFnvPrime;
}

}  // namespace

std::vector<std::uint8_t> Seal(SealedKind kind,
                               std::span<const std::uint8_t> payload) {
  const SealedFormat format = FormatOf(kind);
  SnapshotWriter header;
  header.PutU32(format.magic);
  header.PutU32(format.version);
  header.PutU64(Checksum(payload));
  header.PutU64(payload.size());
  std::vector<std::uint8_t> file = header.Take();
  file.reserve(kSealedHeaderSize + payload.size());
  file.insert(file.end(), payload.begin(), payload.end());
  return file;
}

Result<std::span<const std::uint8_t>> Unseal(
    SealedKind kind, std::span<const std::uint8_t> file,
    std::string_view path) {
  const SealedFormat format = FormatOf(kind);
  const auto fail = [&format, path](const char* what) {
    return Status::FailedPrecondition(std::string(what) + " " +
                                      format.noun + " " +
                                      std::string(path));
  };
  if (file.size() < kSealedHeaderSize) return fail("truncated");
  // The header is in bounds, so these reads cannot fail.
  SnapshotReader header(file.data(), kSealedHeaderSize);
  if (*header.U32() != format.magic) return fail("bad magic in");
  if (*header.U32() != format.version) {
    return Status::NotFound(std::string(format.noun) + " " +
                            std::string(path) +
                            " has an unsupported format version");
  }
  const std::uint64_t checksum = *header.U64();
  const std::uint64_t size = *header.U64();
  const std::span<const std::uint8_t> payload =
      file.subspan(kSealedHeaderSize);
  if (payload.size() != size) return fail("truncated");
  if (Checksum(payload) != checksum) return fail("checksum mismatch in");
  return payload;
}

Status PublishFile(const std::string& path,
                   std::span<const std::uint8_t> bytes) {
  const std::string tmp =
      path + ".tmp" +
      std::to_string(
          std::hash<std::thread::id>{}(std::this_thread::get_id()));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IoError("cannot open temp file " + tmp);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    out.close();  // Flushes; a failed flush fails the stream too.
    if (!out) {
      std::remove(tmp.c_str());
      return Status::IoError("failed writing " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("cannot publish " + path);
  }
  return Status::OK();
}

Result<std::vector<std::uint8_t>> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("no file at " + path);
  // Read the opened file to its end rather than trusting a size taken
  // from the path, which a concurrent publish may have replaced.
  std::vector<std::uint8_t> bytes;
  char chunk[1 << 14];
  do {
    in.read(chunk, sizeof(chunk));
    bytes.insert(bytes.end(), chunk, chunk + in.gcount());
  } while (in);
  if (in.bad()) return Status::IoError("failed reading " + path);
  return bytes;
}

}  // namespace mic::cache
