#include "store/claim_store.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <system_error>
#include <utility>

#include "cache/fingerprint.h"
#include "cache/sealed_file.h"
#include "cache/snapshot_io.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mic::store {
namespace {

// One dictionary: every name in intern order, so re-interning on load
// reassigns the exact ids the imported corpus used.
template <typename Id>
void PutVocabulary(cache::SnapshotWriter& writer,
                   const Vocabulary<Id>& vocab) {
  writer.PutU64(vocab.size());
  for (std::uint32_t i = 0; i < vocab.size(); ++i) {
    writer.PutString(vocab.Name(Id(i)));
  }
}

template <typename Id>
Status GetVocabulary(cache::SnapshotReader& reader, Vocabulary<Id>& vocab) {
  MIC_ASSIGN_OR_RETURN(std::uint64_t count, reader.U64());
  for (std::uint64_t i = 0; i < count; ++i) {
    MIC_ASSIGN_OR_RETURN(std::string name, reader.String());
    const Id id = vocab.Intern(name);
    if (id.value() != i) {
      return Status::FailedPrecondition(
          "store dictionary holds duplicate name '" + name + "'");
    }
  }
  return Status::OK();
}

// One record bag as three dense columns (offsets, ids, multiplicities)
// shared across the whole month.
template <typename Id>
Status PutBagColumns(cache::SnapshotWriter& writer,
                     const std::vector<MicRecord>& records,
                     std::vector<IdCount<Id>> MicRecord::* bag,
                     std::size_t vocab_size) {
  std::uint64_t total = 0;
  writer.PutU64(records.size() + 1);  // Offset column length.
  for (const MicRecord& record : records) {
    writer.PutU32(static_cast<std::uint32_t>(total));
    total += (record.*bag).size();
  }
  writer.PutU32(static_cast<std::uint32_t>(total));
  writer.PutU64(total);
  for (const MicRecord& record : records) {
    for (const auto& entry : (record.*bag)) {
      if (entry.id.value() >= vocab_size) {
        return Status::InvalidArgument(
            "record references an id outside the catalog; intern the "
            "names before appending");
      }
      writer.PutU32(entry.id.value());
    }
  }
  for (const MicRecord& record : records) {
    for (const auto& entry : (record.*bag)) {
      writer.PutU32(entry.count);
    }
  }
  return Status::OK();
}

template <typename Id>
Status GetBagColumns(cache::SnapshotReader& reader,
                     std::vector<MicRecord>& records,
                     std::vector<IdCount<Id>> MicRecord::* bag) {
  MIC_ASSIGN_OR_RETURN(std::uint64_t offset_count, reader.U64());
  if (offset_count != records.size() + 1) {
    return Status::FailedPrecondition(
        "store segment bag offset column has the wrong length");
  }
  std::vector<std::uint32_t> offsets(offset_count);
  MIC_RETURN_IF_ERROR(reader.U32Column(offsets.data(), offsets.size()));
  MIC_ASSIGN_OR_RETURN(std::uint64_t total, reader.U64());
  if (offsets.front() != 0 || offsets.back() != total ||
      total > reader.remaining() / 4) {
    return Status::FailedPrecondition(
        "store segment bag offsets do not cover the entry columns");
  }
  std::vector<std::uint32_t> ids(total);
  MIC_RETURN_IF_ERROR(reader.U32Column(ids.data(), ids.size()));
  std::vector<std::uint32_t> counts(total);
  MIC_RETURN_IF_ERROR(reader.U32Column(counts.data(), counts.size()));
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (offsets[i] > offsets[i + 1]) {
      return Status::FailedPrecondition(
          "store segment bag offsets are not monotone");
    }
    std::vector<IdCount<Id>>& entries = records[i].*bag;
    entries.resize(offsets[i + 1] - offsets[i]);
    for (std::size_t j = 0; j < entries.size(); ++j) {
      entries[j].id = Id(ids[offsets[i] + j]);
      entries[j].count = counts[offsets[i] + j];
    }
  }
  return Status::OK();
}

std::uint64_t FingerprintBytes(const std::uint8_t* bytes,
                               std::size_t size) {
  cache::Hasher hasher;
  hasher.Mix(size);
  hasher.MixBytes(bytes, size);
  return hasher.digest();
}

std::uint64_t FingerprintBytes(const std::vector<std::uint8_t>& bytes) {
  return FingerprintBytes(bytes.data(), bytes.size());
}

}  // namespace

ClaimStore::ClaimStore(std::string directory,
                       std::unique_ptr<StoreBackend> backend,
                       obs::MetricsRegistry* metrics)
    : directory_(std::move(directory)),
      backend_(std::move(backend)),
      metrics_(metrics) {
  segments_read_ = obs::GetCounter(metrics, "store.segments_read");
  segments_written_ = obs::GetCounter(metrics, "store.segments_written");
  bytes_read_ = obs::GetCounter(metrics, "store.bytes_read");
  bytes_written_ = obs::GetCounter(metrics, "store.bytes_written");
  records_read_ = obs::GetCounter(metrics, "store.records_read");
  records_written_ = obs::GetCounter(metrics, "store.records_written");
  read_errors_ = obs::GetCounter(metrics, "store.read_errors");
}

Result<ClaimStore> ClaimStore::Open(std::string directory,
                                    const StoreOptions& options,
                                    obs::MetricsRegistry* metrics) {
  if (directory.empty()) {
    return Status::InvalidArgument(
        "store directory is empty (--store-dir is required)");
  }
  MIC_ASSIGN_OR_RETURN(std::unique_ptr<StoreBackend> backend,
                       MakeBackend(options.backend));
  std::error_code error;
  std::filesystem::create_directories(directory, error);
  if (error) {
    return Status::IoError("cannot create store directory '" + directory +
                           "': " + error.message());
  }
  ClaimStore store(std::move(directory), std::move(backend), metrics);
  if (std::filesystem::exists(store.ManifestPath(), error)) {
    // An existing manifest must parse: any failure here (truncation,
    // checksum, future format) is an error, never "empty store" — that
    // would let a later append silently bury the old world.
    MIC_RETURN_IF_ERROR(store.LoadManifest());
  }
  return store;
}

std::string ClaimStore::ManifestPath() const {
  return directory_ + "/MANIFEST";
}

std::string ClaimStore::DictPath(std::uint64_t fingerprint) const {
  return directory_ + "/dict-" + cache::KeyToHex(fingerprint) + ".seg";
}

std::string ClaimStore::LegacyDictPath() const {
  return directory_ + "/dict.seg";
}

std::string ClaimStore::MonthPath(std::size_t t) const {
  char name[32];
  std::snprintf(name, sizeof(name), "/m%04zu.seg", t);
  return directory_ + name;
}

std::uint64_t ClaimStore::Fingerprint() const {
  cache::Hasher hasher;
  hasher.Mix(dict_fingerprint_);
  hasher.Mix(month_fingerprints_.size());
  for (std::uint64_t fingerprint : month_fingerprints_) {
    hasher.Mix(fingerprint);
  }
  return hasher.digest();
}

Result<SegmentView> ClaimStore::ReadSealed(const std::string& path) const {
  auto raw = backend_->Read(path);
  if (!raw.ok()) {
    obs::Increment(read_errors_);
    return raw.status();
  }
  auto payload = cache::Unseal(cache::SealedKind::kStoreFile,
                               {raw->data, raw->size}, path);
  if (!payload.ok()) {
    obs::Increment(read_errors_);
    return payload.status();
  }
  obs::Increment(segments_read_);
  obs::Increment(bytes_read_, raw->size);
  if (backend_->name() == "mmap") {
    obs::Add(obs::GetGauge(metrics_, "store.bytes_mapped"),
             static_cast<double>(raw->size));
  }
  return SegmentView{payload->data(), payload->size(), raw->owner};
}

Status ClaimStore::WriteSealed(
    const std::string& path,
    const std::vector<std::uint8_t>& payload) const {
  const std::vector<std::uint8_t> sealed =
      cache::Seal(cache::SealedKind::kStoreFile, payload);
  MIC_RETURN_IF_ERROR(cache::PublishFile(path, sealed));
  obs::Increment(segments_written_);
  obs::Increment(bytes_written_, sealed.size());
  return Status::OK();
}

Status ClaimStore::LoadManifest() {
  MIC_ASSIGN_OR_RETURN(SegmentView payload, ReadSealed(ManifestPath()));
  cache::SnapshotReader reader(payload.data, payload.size);
  MIC_ASSIGN_OR_RETURN(std::uint64_t num_months, reader.U64());
  MIC_ASSIGN_OR_RETURN(dict_fingerprint_, reader.U64());
  month_fingerprints_.resize(num_months);
  for (auto& fingerprint : month_fingerprints_) {
    MIC_ASSIGN_OR_RETURN(fingerprint, reader.U64());
  }
  if (!reader.AtEnd()) {
    return Status::FailedPrecondition("trailing bytes in store manifest " +
                                      ManifestPath());
  }
  return Status::OK();
}

Status ClaimStore::WriteManifest() const {
  cache::SnapshotWriter writer;
  writer.PutU64(month_fingerprints_.size());
  writer.PutU64(dict_fingerprint_);
  for (std::uint64_t fingerprint : month_fingerprints_) {
    writer.PutU64(fingerprint);
  }
  return WriteSealed(ManifestPath(), writer.bytes());
}

Result<std::uint64_t> ClaimStore::WriteDict(const Catalog& catalog) const {
  cache::SnapshotWriter writer;
  PutVocabulary(writer, catalog.diseases());
  PutVocabulary(writer, catalog.medicines());
  PutVocabulary(writer, catalog.hospitals());
  PutVocabulary(writer, catalog.cities());
  PutVocabulary(writer, catalog.patients());
  for (std::uint32_t i = 0; i < catalog.hospitals().size(); ++i) {
    auto info = catalog.GetHospitalInfo(HospitalId(i));
    if (info.ok()) {
      writer.PutU32(1);
      writer.PutU32(info->city.value());
      writer.PutU32(info->beds);
    } else {
      writer.PutU32(0);
    }
  }
  const std::vector<std::uint8_t>& payload = writer.bytes();
  const std::uint64_t fingerprint = FingerprintBytes(payload);
  obs::Set(obs::GetGauge(metrics_, "store.intern.diseases"),
           static_cast<double>(catalog.diseases().size()));
  obs::Set(obs::GetGauge(metrics_, "store.intern.medicines"),
           static_cast<double>(catalog.medicines().size()));
  obs::Set(obs::GetGauge(metrics_, "store.intern.hospitals"),
           static_cast<double>(catalog.hospitals().size()));
  obs::Set(obs::GetGauge(metrics_, "store.intern.patients"),
           static_cast<double>(catalog.patients().size()));
  MIC_RETURN_IF_ERROR(WriteSealed(DictPath(fingerprint), payload));
  return fingerprint;
}

Result<std::shared_ptr<Catalog>> ClaimStore::LoadDict() const {
  // Stores written before dictionaries were named by their fingerprint
  // keep theirs in dict.seg.
  std::string path = DictPath(dict_fingerprint_);
  std::error_code error;
  if (!std::filesystem::exists(path, error)) path = LegacyDictPath();
  MIC_ASSIGN_OR_RETURN(SegmentView payload, ReadSealed(path));
  if (FingerprintBytes(payload.data, payload.size) != dict_fingerprint_) {
    return Status::FailedPrecondition(
        "store dictionary does not match the manifest: " + path);
  }
  auto catalog = std::make_shared<Catalog>();
  cache::SnapshotReader reader(payload.data, payload.size);
  MIC_RETURN_IF_ERROR(GetVocabulary(reader, catalog->diseases()));
  MIC_RETURN_IF_ERROR(GetVocabulary(reader, catalog->medicines()));
  MIC_RETURN_IF_ERROR(GetVocabulary(reader, catalog->hospitals()));
  MIC_RETURN_IF_ERROR(GetVocabulary(reader, catalog->cities()));
  MIC_RETURN_IF_ERROR(GetVocabulary(reader, catalog->patients()));
  for (std::uint32_t i = 0; i < catalog->hospitals().size(); ++i) {
    MIC_ASSIGN_OR_RETURN(std::uint32_t has_info, reader.U32());
    if (has_info == 0) continue;
    HospitalInfo info;
    MIC_ASSIGN_OR_RETURN(std::uint32_t city, reader.U32());
    MIC_ASSIGN_OR_RETURN(info.beds, reader.U32());
    info.city = CityId(city);
    catalog->SetHospitalInfo(HospitalId(i), info);
  }
  if (!reader.AtEnd()) {
    return Status::FailedPrecondition(
        "trailing bytes in store dictionary " + path);
  }
  obs::Set(obs::GetGauge(metrics_, "store.intern.diseases"),
           static_cast<double>(catalog->diseases().size()));
  obs::Set(obs::GetGauge(metrics_, "store.intern.medicines"),
           static_cast<double>(catalog->medicines().size()));
  obs::Set(obs::GetGauge(metrics_, "store.intern.hospitals"),
           static_cast<double>(catalog->hospitals().size()));
  obs::Set(obs::GetGauge(metrics_, "store.intern.patients"),
           static_cast<double>(catalog->patients().size()));
  return catalog;
}

Status ClaimStore::AppendMonth(const MonthlyDataset& month,
                               const Catalog& catalog) {
  obs::ScopedTimer append_timer(metrics_, "store.append");
  if (month.month() != static_cast<MonthIndex>(num_months())) {
    return Status::InvalidArgument(
        "store holds " + std::to_string(num_months()) +
        " months; cannot append month " + std::to_string(month.month()) +
        " (months are consecutive from 0)");
  }
  const std::uint64_t fingerprint = cache::FingerprintMonth(month);

  cache::SnapshotWriter writer;
  writer.PutI64(month.month());
  // The fingerprint rides inside the segment too, so load can verify
  // segment <-> manifest agreement without re-hashing records.
  writer.PutU64(fingerprint);
  const std::vector<MicRecord>& records = month.records();
  writer.PutU64(records.size());
  for (const MicRecord& record : records) {
    if (record.hospital.value() >= catalog.hospitals().size() ||
        record.patient.value() >= catalog.patients().size()) {
      return Status::InvalidArgument(
          "record references a hospital or patient outside the catalog");
    }
    writer.PutU32(record.hospital.value());
  }
  for (const MicRecord& record : records) {
    writer.PutU32(record.patient.value());
  }
  MIC_RETURN_IF_ERROR(PutBagColumns(writer, records, &MicRecord::diseases,
                                    catalog.diseases().size()));
  MIC_RETURN_IF_ERROR(PutBagColumns(writer, records, &MicRecord::medicines,
                                    catalog.medicines().size()));

  // Segment first, dictionary second, manifest last. The manifest is the
  // only commit point: the segment and the dictionary go to files the
  // current manifest does not name (the next month's segment, the
  // dictionary named by its new fingerprint), so a crash between any two
  // writes leaves the previous world plus orphan files.
  MIC_RETURN_IF_ERROR(WriteSealed(MonthPath(num_months()), writer.bytes()));
  MIC_ASSIGN_OR_RETURN(const std::uint64_t dict_fingerprint,
                       WriteDict(catalog));
  const std::uint64_t old_dict_fingerprint =
      std::exchange(dict_fingerprint_, dict_fingerprint);
  month_fingerprints_.push_back(fingerprint);
  if (Status status = WriteManifest(); !status.ok()) {
    month_fingerprints_.pop_back();
    dict_fingerprint_ = old_dict_fingerprint;
    return status;
  }
  // Committed: the dictionary the manifest named before is garbage.
  std::error_code error;
  if (old_dict_fingerprint != dict_fingerprint) {
    std::filesystem::remove(DictPath(old_dict_fingerprint), error);
  }
  std::filesystem::remove(LegacyDictPath(), error);
  obs::Increment(records_written_, records.size());
  return Status::OK();
}

Status ClaimStore::LoadMonthInto(std::size_t t, MicCorpus& corpus) const {
  MIC_ASSIGN_OR_RETURN(SegmentView payload, ReadSealed(MonthPath(t)));
  cache::SnapshotReader reader(payload.data, payload.size);
  MIC_ASSIGN_OR_RETURN(std::int64_t month_index, reader.I64());
  MIC_ASSIGN_OR_RETURN(std::uint64_t fingerprint, reader.U64());
  if (month_index != static_cast<std::int64_t>(t) ||
      fingerprint != month_fingerprints_[t]) {
    return Status::FailedPrecondition(
        "store segment " + MonthPath(t) +
        " does not match the manifest (torn append?)");
  }
  MIC_ASSIGN_OR_RETURN(std::uint64_t num_records, reader.U64());
  if (num_records > reader.remaining() / 8) {
    return Status::FailedPrecondition(
        "store segment " + MonthPath(t) +
        " claims more records than its payload holds");
  }
  MonthlyDataset month(static_cast<MonthIndex>(t));
  std::vector<MicRecord> records(num_records);
  std::vector<std::uint32_t> column(num_records);
  MIC_RETURN_IF_ERROR(reader.U32Column(column.data(), column.size()));
  for (std::size_t i = 0; i < num_records; ++i) {
    records[i].hospital = HospitalId(column[i]);
  }
  MIC_RETURN_IF_ERROR(reader.U32Column(column.data(), column.size()));
  for (std::size_t i = 0; i < num_records; ++i) {
    records[i].patient = PatientId(column[i]);
  }
  MIC_RETURN_IF_ERROR(GetBagColumns(reader, records, &MicRecord::diseases));
  MIC_RETURN_IF_ERROR(
      GetBagColumns(reader, records, &MicRecord::medicines));
  if (!reader.AtEnd()) {
    return Status::FailedPrecondition("trailing bytes in store segment " +
                                      MonthPath(t));
  }
  month.mutable_records() = std::move(records);
  month.set_content_fingerprint(month_fingerprints_[t]);
  obs::Increment(records_read_, num_records);
  return corpus.AddMonth(std::move(month));
}

Result<MicCorpus> ClaimStore::LoadMonths(std::size_t count) const {
  obs::ScopedTimer load_timer(metrics_, "store.load");
  if (count > num_months()) {
    return Status::OutOfRange("store holds " +
                              std::to_string(num_months()) +
                              " months; cannot load " +
                              std::to_string(count));
  }
  MIC_ASSIGN_OR_RETURN(std::shared_ptr<Catalog> catalog, LoadDict());
  MicCorpus corpus(std::move(catalog));
  for (std::size_t t = 0; t < count; ++t) {
    MIC_RETURN_IF_ERROR(LoadMonthInto(t, corpus));
  }
  return corpus;
}

Result<MicCorpus> ClaimStore::OpenWorld() const {
  if (num_months() == 0) {
    return Status::FailedPrecondition(
        "store at '" + directory_ +
        "' holds no months; run `mictrend import` first");
  }
  return LoadMonths(num_months());
}

Result<std::size_t> ImportCorpus(const MicCorpus& corpus,
                                 ClaimStore& store) {
  const std::size_t overlap =
      std::min(store.num_months(), corpus.num_months());
  for (std::size_t t = 0; t < overlap; ++t) {
    if (cache::FingerprintMonth(corpus.month(t)) !=
        store.MonthFingerprint(t)) {
      return Status::FailedPrecondition(
          "month " + std::to_string(t) +
          " differs between the corpus and the store; appends must "
          "extend the stored world, not rewrite it");
    }
  }
  std::size_t appended = 0;
  for (std::size_t t = store.num_months(); t < corpus.num_months(); ++t) {
    MIC_RETURN_IF_ERROR(store.AppendMonth(corpus.month(t),
                                          corpus.catalog()));
    ++appended;
  }
  return appended;
}

}  // namespace mic::store
