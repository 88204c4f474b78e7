#include "cache/cache_store.h"

#include <filesystem>
#include <system_error>

#include "cache/fingerprint.h"
#include "cache/sealed_file.h"
#include "obs/metrics.h"

namespace mic::cache {

Result<CacheMode> ParseCacheMode(std::string_view text) {
  if (text == "off") return CacheMode::kOff;
  if (text == "read") return CacheMode::kRead;
  if (text == "write") return CacheMode::kWrite;
  if (text == "rw") return CacheMode::kReadWrite;
  return Status::InvalidArgument("--cache must be one of off, read, "
                                 "write, rw; got '" +
                                 std::string(text) + "'");
}

std::string_view CacheModeName(CacheMode mode) {
  switch (mode) {
    case CacheMode::kOff:
      return "off";
    case CacheMode::kRead:
      return "read";
    case CacheMode::kWrite:
      return "write";
    case CacheMode::kReadWrite:
      return "rw";
  }
  return "off";
}

CacheStore::CacheStore(std::string directory, CacheMode mode,
                       obs::MetricsRegistry* metrics)
    : directory_(std::move(directory)), mode_(mode) {
  hits_ = obs::GetCounter(metrics, "cache.hits");
  misses_ = obs::GetCounter(metrics, "cache.misses");
  read_errors_ = obs::GetCounter(metrics, "cache.read_errors");
  bytes_read_ = obs::GetCounter(metrics, "cache.bytes_read");
  bytes_written_ = obs::GetCounter(metrics, "cache.bytes_written");
}

Status CacheStore::Open() {
  if (mode_ == CacheMode::kOff) {
    opened_ = false;
    return Status::OK();
  }
  if (directory_.empty()) {
    return Status::InvalidArgument(
        "cache directory is empty (--cache-dir is required when "
        "--cache is not off)");
  }
  std::error_code error;
  std::filesystem::create_directories(directory_, error);
  if (error) {
    return Status::IoError("cannot create cache directory '" + directory_ +
                           "': " + error.message());
  }
  if (!std::filesystem::is_directory(directory_, error)) {
    return Status::IoError("cache path '" + directory_ +
                           "' is not a directory");
  }
  opened_ = true;
  return Status::OK();
}

bool CacheStore::can_read() const {
  return opened_ &&
         (mode_ == CacheMode::kRead || mode_ == CacheMode::kReadWrite);
}

bool CacheStore::can_write() const {
  return opened_ &&
         (mode_ == CacheMode::kWrite || mode_ == CacheMode::kReadWrite);
}

std::string CacheStore::EntryPath(std::string_view ns,
                                  std::uint64_t key) const {
  std::string path = directory_;
  path += '/';
  path += ns;
  path += '/';
  path += KeyToHex(key);
  path += ".snap";
  return path;
}

Result<std::vector<std::uint8_t>> CacheStore::Get(std::string_view ns,
                                                  std::uint64_t key) {
  if (!can_read()) {
    obs::Increment(misses_);
    return Status::NotFound("cache is not readable in mode '" +
                            std::string(CacheModeName(mode_)) + "'");
  }
  // A missing entry or one of another format version (NotFound) is a
  // plain miss; anything else is a corrupt or unreadable entry.
  const auto miss = [this](Status status) {
    obs::Increment(misses_);
    if (status.code() != StatusCode::kNotFound) {
      obs::Increment(read_errors_);
    }
    return status;
  };
  const std::string path = EntryPath(ns, key);
  auto file = ReadFile(path);
  if (!file.ok()) return miss(file.status());
  auto payload = Unseal(SealedKind::kCacheEntry, *file, path);
  if (!payload.ok()) return miss(payload.status());
  obs::Increment(hits_);
  obs::Increment(bytes_read_, file->size());
  return std::vector<std::uint8_t>(payload->begin(), payload->end());
}

Status CacheStore::Put(std::string_view ns, std::uint64_t key,
                       const std::vector<std::uint8_t>& payload) {
  if (!can_write()) return Status::OK();

  std::error_code error;
  const std::string dir = directory_ + '/' + std::string(ns);
  std::filesystem::create_directories(dir, error);
  if (error) {
    return Status::IoError("cannot create cache namespace '" + dir +
                           "': " + error.message());
  }
  // Concurrent writers of the same key carry identical
  // content-addressed bytes, so either publish winning is fine.
  const std::vector<std::uint8_t> file =
      Seal(SealedKind::kCacheEntry, payload);
  MIC_RETURN_IF_ERROR(PublishFile(EntryPath(ns, key), file));
  obs::Increment(bytes_written_, file.size());
  return Status::OK();
}

}  // namespace mic::cache
