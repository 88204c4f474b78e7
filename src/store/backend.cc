#include "store/backend.h"

#include <vector>

#include "cache/sealed_file.h"

#if defined(__unix__) || defined(__APPLE__)
#define MICTREND_STORE_HAS_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define MICTREND_STORE_HAS_MMAP 0
#endif

namespace mic::store {
namespace {

class FileBackend final : public StoreBackend {
 public:
  std::string_view name() const override { return "file"; }

  Result<SegmentView> Read(const std::string& path) override {
    MIC_ASSIGN_OR_RETURN(std::vector<std::uint8_t> bytes,
                         cache::ReadFile(path));
    auto buffer =
        std::make_shared<std::vector<std::uint8_t>>(std::move(bytes));
    SegmentView view;
    view.data = buffer->data();
    view.size = buffer->size();
    view.owner = std::shared_ptr<const void>(buffer, buffer->data());
    return view;
  }
};

#if MICTREND_STORE_HAS_MMAP

// Releases one mapping; shared from the SegmentView owner so the pages
// stay valid for as long as any view into them is alive.
struct Mapping {
  void* address = nullptr;
  std::size_t size = 0;
  ~Mapping() {
    if (address != nullptr && size > 0) munmap(address, size);
  }
};

class MmapBackend final : public StoreBackend {
 public:
  std::string_view name() const override { return "mmap"; }

  Result<SegmentView> Read(const std::string& path) override {
    const int fd = open(path.c_str(), O_RDONLY);
    if (fd < 0) return Status::NotFound("no store segment at " + path);
    struct stat info;
    if (fstat(fd, &info) != 0) {
      close(fd);
      return Status::IoError("cannot stat store segment " + path);
    }
    const auto size = static_cast<std::size_t>(info.st_size);
    if (size == 0) {
      // mmap rejects zero-length maps; an empty file is simply an empty
      // (and therefore invalid-envelope) segment.
      close(fd);
      return SegmentView{};
    }
    void* address = mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    close(fd);  // The mapping outlives the descriptor.
    if (address == MAP_FAILED) {
      return Status::IoError("cannot map store segment " + path);
    }
    auto mapping = std::make_shared<Mapping>();
    mapping->address = address;
    mapping->size = size;
    SegmentView view;
    view.data = static_cast<const std::uint8_t*>(address);
    view.size = size;
    view.owner = std::shared_ptr<const void>(mapping, mapping->address);
    return view;
  }
};

#endif  // MICTREND_STORE_HAS_MMAP

}  // namespace

Result<BackendKind> ParseBackendKind(std::string_view text) {
  if (text == "auto") return BackendKind::kAuto;
  if (text == "mmap") return BackendKind::kMmap;
  if (text == "file") return BackendKind::kFile;
  return Status::InvalidArgument("--store must be one of auto, mmap, "
                                 "file; got '" +
                                 std::string(text) + "'");
}

std::string_view BackendKindName(BackendKind kind) {
  switch (kind) {
    case BackendKind::kAuto:
      return "auto";
    case BackendKind::kMmap:
      return "mmap";
    case BackendKind::kFile:
      return "file";
  }
  return "auto";
}

bool MmapAvailable() { return MICTREND_STORE_HAS_MMAP != 0; }

Result<std::unique_ptr<StoreBackend>> MakeBackend(BackendKind kind) {
  if (kind == BackendKind::kAuto) {
    kind = MmapAvailable() ? BackendKind::kMmap : BackendKind::kFile;
  }
#if MICTREND_STORE_HAS_MMAP
  if (kind == BackendKind::kMmap) {
    return std::unique_ptr<StoreBackend>(new MmapBackend());
  }
#else
  if (kind == BackendKind::kMmap) {
    return Status::NotImplemented(
        "the mmap store backend is not available on this platform; use "
        "--store=file");
  }
#endif
  return std::unique_ptr<StoreBackend>(new FileBackend());
}

}  // namespace mic::store
