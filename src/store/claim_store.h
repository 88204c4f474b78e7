// mic::store — the persistent columnar claim store that replaces
// per-run CSV re-parse.
//
// A store directory is a claim world at rest:
//
//   <dir>/MANIFEST        num_months, the dictionary fingerprint, and
//                         one content fingerprint per month (the commit
//                         point: appends publish it last)
//   <dir>/dict-<F>.seg    the interned id dictionaries — every
//                         disease / medicine / hospital / city /
//                         patient name in intern order, plus hospital
//                         attributes — named by the fingerprint F the
//                         MANIFEST records; an append writes the new
//                         one beside the old and removes the old one
//                         after the commit (stores written before this
//                         naming keep a single dict.seg)
//   <dir>/m<NNNN>.seg     one columnar segment per month: the record
//                         count, then dense u32 columns (hospital ids,
//                         patient ids, bag offsets, bag ids, bag
//                         multiplicities)
//
// Every file is a sealed file of kind kStoreFile (cache/sealed_file.h):
// checksummed, versioned, and published with a temp file + rename. How
// segment bytes get into memory is pluggable (StoreBackend):
// memory-mapped by default, plain file I/O as the portable fallback.
//
// Identity contract: loading a world from the store yields records
// bit-identical to the corpus that was imported — same month order,
// same record order, same interned ids resolving to the same names —
// so a store-backed pipeline run produces byte-identical reports to
// the CSV ingest path. Each month's cache::FingerprintMonth digest is
// persisted at append time and stamped onto the loaded MonthlyDataset,
// which lets the mic::cache warm-start layer key its snapshots without
// re-hashing raw records.
//
// Failure policy: unlike the cache, the store is a source of truth, so
// reads fail loudly (a corrupt segment is an error, not a miss) and
// callers that hold the original CSV degrade to a warned cold parse.
//
// With a MetricsRegistry attached the store exports store.* counters
// (segments/bytes/records read and written, dictionary entries) plus
// store.bytes_mapped and store.intern.* gauges and store.append /
// store.load timers. All store.* counters count I/O that happens on
// the (serial) ingest path, so they are bit-identical at any pipeline
// thread count.

#ifndef MICTREND_STORE_CLAIM_STORE_H_
#define MICTREND_STORE_CLAIM_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "mic/dataset.h"
#include "store/backend.h"

namespace mic::obs {
class Counter;
class MetricsRegistry;
}  // namespace mic::obs

namespace mic::store {

struct StoreOptions {
  BackendKind backend = BackendKind::kAuto;
};

class ClaimStore {
 public:
  /// Opens the store at `directory`, creating an empty one (and the
  /// directory) when no manifest exists yet. Fails on an unreadable or
  /// corrupt manifest, or when options.backend is unavailable.
  /// `metrics` (not owned, may be null) receives the store.* metrics.
  static Result<ClaimStore> Open(std::string directory,
                                 const StoreOptions& options = {},
                                 obs::MetricsRegistry* metrics = nullptr);

  ClaimStore(ClaimStore&&) = default;
  ClaimStore& operator=(ClaimStore&&) = default;

  std::size_t num_months() const { return month_fingerprints_.size(); }
  const std::string& directory() const { return directory_; }
  /// The resolved backend ("mmap" or "file" — never "auto").
  std::string_view backend_name() const { return backend_->name(); }

  /// Content fingerprint of the whole store: the dictionary digest
  /// chained with every month digest. Two stores holding the same world
  /// fingerprint equal; any append or edit changes it.
  std::uint64_t Fingerprint() const;

  /// cache::FingerprintMonth digest of stored month `t` (persisted at
  /// append time; no re-hash).
  std::uint64_t MonthFingerprint(std::size_t t) const {
    return month_fingerprints_.at(t);
  }

  /// Appends the next month. `month.month()` must equal num_months()
  /// (months are consecutive from 0, matching MicCorpus), and every id
  /// in its records must resolve in `catalog`. Persists the segment and
  /// the dictionary under names the current manifest does not use, then
  /// publishes the manifest, so a crash anywhere mid-append leaves the
  /// previous world.
  Status AppendMonth(const MonthlyDataset& month, const Catalog& catalog);

  /// Loads the first `count` months into a fresh corpus. The catalog is
  /// rebuilt in intern order (ids match the imported corpus exactly)
  /// and each loaded month carries its stored content fingerprint.
  Result<MicCorpus> LoadMonths(std::size_t count) const;

  /// The whole stored world: LoadMonths(num_months()). Fails on an
  /// empty store — an ingest source with no months is a caller bug or a
  /// wrong directory, not a valid world.
  Result<MicCorpus> OpenWorld() const;

 private:
  ClaimStore(std::string directory, std::unique_ptr<StoreBackend> backend,
             obs::MetricsRegistry* metrics);

  std::string ManifestPath() const;
  /// The dictionary whose payload fingerprint is `fingerprint`.
  std::string DictPath(std::uint64_t fingerprint) const;
  /// Where stores written before dictionaries were named by their
  /// fingerprint keep theirs; read only when the named one is absent.
  std::string LegacyDictPath() const;
  std::string MonthPath(std::size_t t) const;

  /// Reads + unseals one store file; counts it into the read metrics.
  Result<SegmentView> ReadSealed(const std::string& path) const;
  Status WriteSealed(const std::string& path,
                     const std::vector<std::uint8_t>& payload) const;

  Status LoadManifest();
  Status WriteManifest() const;
  /// Writes the dictionary and returns its fingerprint; commits nothing.
  Result<std::uint64_t> WriteDict(const Catalog& catalog) const;
  Result<std::shared_ptr<Catalog>> LoadDict() const;
  Status LoadMonthInto(std::size_t t, MicCorpus& corpus) const;

  std::string directory_;
  std::unique_ptr<StoreBackend> backend_;
  std::vector<std::uint64_t> month_fingerprints_;
  std::uint64_t dict_fingerprint_ = 0;

  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* segments_read_ = nullptr;
  obs::Counter* segments_written_ = nullptr;
  obs::Counter* bytes_read_ = nullptr;
  obs::Counter* bytes_written_ = nullptr;
  obs::Counter* records_read_ = nullptr;
  obs::Counter* records_written_ = nullptr;
  obs::Counter* read_errors_ = nullptr;
};

/// Appends every corpus month the store does not yet hold (the
/// incremental monthly batch: stored months [0, k) stay untouched,
/// corpus months [k, T) are appended). Months both sides hold must
/// agree — each overlapping month's fingerprint is verified and a
/// mismatch fails with FailedPrecondition before anything is written.
/// Returns the number of months appended (0 when the store is already
/// up to date).
Result<std::size_t> ImportCorpus(const MicCorpus& corpus,
                                 ClaimStore& store);

}  // namespace mic::store

#endif  // MICTREND_STORE_CLAIM_STORE_H_
