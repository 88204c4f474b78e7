#include "cache/cache_store.h"

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/fingerprint.h"
#include "cache/sealed_file.h"
#include "cache/snapshot_io.h"
#include "common/exec_context.h"
#include "medmodel/medication_model.h"
#include "medmodel/timeseries.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"
#include "ssm/fit.h"
#include "ssm/kalman.h"
#include "synth/generator.h"
#include "synth/scenario.h"
#include "trend/pipeline.h"

namespace mic {
namespace {

namespace fs = std::filesystem;

// Fresh per-test scratch directory under the gtest temp root.
fs::path FreshDir(const char* name) {
  fs::path dir = fs::path(::testing::TempDir()) / name;
  std::error_code ec;
  fs::remove_all(dir, ec);
  return dir;
}

MicRecord MakeRecord(std::initializer_list<int> diseases,
                     std::initializer_list<int> medicines) {
  MicRecord record;
  for (int id : diseases) {
    record.diseases.push_back({DiseaseId(static_cast<std::uint32_t>(id)), 1});
  }
  for (int id : medicines) {
    record.medicines.push_back(
        {MedicineId(static_cast<std::uint32_t>(id)), 1});
  }
  record.Normalize();
  return record;
}

MonthlyDataset SmallMonth(int extra_records = 0) {
  MonthlyDataset month(0);
  for (int i = 0; i < 30; ++i) month.AddRecord(MakeRecord({0, 1}, {0, 1}));
  for (int i = 0; i < 40; ++i) month.AddRecord(MakeRecord({1}, {1}));
  for (int i = 0; i < 10 + extra_records; ++i) {
    month.AddRecord(MakeRecord({0}, {0}));
  }
  return month;
}

TEST(FingerprintTest, HasherIsDeterministicAndOrderSensitive) {
  cache::Hasher a;
  a.Mix(7).MixSigned(-3).MixDouble(1.5).MixString("em");
  cache::Hasher b;
  b.Mix(7).MixSigned(-3).MixDouble(1.5).MixString("em");
  EXPECT_EQ(a.digest(), b.digest());

  cache::Hasher reordered;
  reordered.MixSigned(-3).Mix(7).MixDouble(1.5).MixString("em");
  EXPECT_NE(a.digest(), reordered.digest());

  // Doubles hash by bit pattern: 0.0 and -0.0 compare equal but are
  // distinct inputs, so they must produce distinct keys.
  cache::Hasher pos, neg;
  pos.MixDouble(0.0);
  neg.MixDouble(-0.0);
  EXPECT_NE(pos.digest(), neg.digest());
}

TEST(FingerprintTest, MonthKeyTracksRecordContent) {
  const std::uint64_t base = cache::FingerprintMonth(SmallMonth());
  EXPECT_EQ(base, cache::FingerprintMonth(SmallMonth()));
  EXPECT_NE(base, cache::FingerprintMonth(SmallMonth(/*extra_records=*/1)));
}

TEST(FingerprintTest, SeriesKeyTracksValueBits) {
  const std::vector<double> series = {1.0, 2.0, 3.5};
  std::vector<double> nudged = series;
  nudged[1] = std::nextafter(nudged[1], 10.0);
  EXPECT_EQ(cache::FingerprintSeries(series),
            cache::FingerprintSeries({1.0, 2.0, 3.5}));
  EXPECT_NE(cache::FingerprintSeries(series),
            cache::FingerprintSeries(nudged));
}

TEST(FingerprintTest, KeyToHexIsFixedWidthLowercase) {
  EXPECT_EQ(cache::KeyToHex(0), "0000000000000000");
  EXPECT_EQ(cache::KeyToHex(0xDEADBEEFull), "00000000deadbeef");
  EXPECT_EQ(cache::KeyToHex(~0ull), "ffffffffffffffff");
}

TEST(SnapshotIoTest, RoundTripsEveryFieldType) {
  cache::SnapshotWriter writer;
  writer.PutU32(42);
  writer.PutU64(~0ull);
  writer.PutI64(-7);
  writer.PutDouble(-0.0);
  writer.PutString("phi");
  const std::vector<std::uint8_t> payload = writer.Take();

  cache::SnapshotReader reader(payload);
  auto u32 = reader.U32();
  ASSERT_TRUE(u32.ok());
  EXPECT_EQ(*u32, 42u);
  auto u64 = reader.U64();
  ASSERT_TRUE(u64.ok());
  EXPECT_EQ(*u64, ~0ull);
  auto i64 = reader.I64();
  ASSERT_TRUE(i64.ok());
  EXPECT_EQ(*i64, -7);
  auto value = reader.Double();
  ASSERT_TRUE(value.ok());
  EXPECT_TRUE(std::signbit(*value));
  auto text = reader.String();
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, "phi");
  EXPECT_TRUE(reader.AtEnd());
}

TEST(SnapshotIoTest, TruncationFailsInsteadOfAborting) {
  cache::SnapshotWriter writer;
  writer.PutU64(123);
  std::vector<std::uint8_t> payload = writer.Take();
  payload.pop_back();
  cache::SnapshotReader reader(payload);
  EXPECT_FALSE(reader.U64().ok());
  EXPECT_FALSE(reader.AtEnd());
}

// A payload with one full checksum word and a three-byte tail.
std::vector<std::uint8_t> ElevenBytePayload() {
  std::vector<std::uint8_t> payload;
  for (int i = 0; i < 11; ++i) {
    payload.push_back(static_cast<std::uint8_t>(i * 17 + 3));
  }
  return payload;
}

// Every claim store on disk holds these bytes for this payload; a
// change here is a store format change and needs a version bump.
TEST(SealedFileTest, StoreFileBytesArePinned) {
  const std::vector<std::uint8_t> expected = {
      0x53, 0x43, 0x49, 0x4d, 0x01, 0x00, 0x00, 0x00,  // "MICS" (LE), v1
      0x60, 0x8c, 0x98, 0xf5, 0x58, 0xd8, 0x0f, 0x97,  // checksum
      0x0b, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // payload size
      0x03, 0x14, 0x25, 0x36, 0x47, 0x58, 0x69, 0x7a,  // payload
      0x8b, 0x9c, 0xad};
  EXPECT_EQ(cache::Seal(cache::SealedKind::kStoreFile, ElevenBytePayload()),
            expected);
}

TEST(SealedFileTest, DetectsEveryCorruptionMode) {
  const std::vector<std::uint8_t> payload = ElevenBytePayload();
  for (cache::SealedKind kind :
       {cache::SealedKind::kCacheEntry, cache::SealedKind::kStoreFile}) {
    const std::vector<std::uint8_t> sealed = cache::Seal(kind, payload);
    ASSERT_EQ(sealed.size(), cache::kSealedHeaderSize + payload.size());
    auto ok = cache::Unseal(kind, sealed, "f");
    ASSERT_TRUE(ok.ok());
    EXPECT_EQ(std::vector<std::uint8_t>(ok->begin(), ok->end()), payload);

    std::vector<std::uint8_t> truncated(sealed.begin(), sealed.end() - 1);
    EXPECT_EQ(cache::Unseal(kind, truncated, "f").status().code(),
              StatusCode::kFailedPrecondition);

    std::vector<std::uint8_t> flipped = sealed;
    flipped.back() ^= 0x01;  // One payload bit.
    EXPECT_EQ(cache::Unseal(kind, flipped, "f").status().code(),
              StatusCode::kFailedPrecondition);

    std::vector<std::uint8_t> bad_magic = sealed;
    bad_magic[0] ^= 0xff;
    EXPECT_EQ(cache::Unseal(kind, bad_magic, "f").status().code(),
              StatusCode::kFailedPrecondition);

    // A format version nobody ships yet reads as absent, not corrupt.
    std::vector<std::uint8_t> future = sealed;
    future[4] = 0x7f;
    EXPECT_EQ(cache::Unseal(kind, future, "f").status().code(),
              StatusCode::kNotFound);

    const std::vector<std::uint8_t> tiny = {'M', 'I'};
    EXPECT_EQ(cache::Unseal(kind, tiny, "f").status().code(),
              StatusCode::kFailedPrecondition);
  }
}

TEST(SealedFileTest, EachKindRejectsTheOther) {
  const std::vector<std::uint8_t> payload = ElevenBytePayload();
  const auto entry = cache::Seal(cache::SealedKind::kCacheEntry, payload);
  const auto store = cache::Seal(cache::SealedKind::kStoreFile, payload);
  EXPECT_EQ(
      cache::Unseal(cache::SealedKind::kStoreFile, entry, "f").status().code(),
      StatusCode::kFailedPrecondition);
  EXPECT_EQ(
      cache::Unseal(cache::SealedKind::kCacheEntry, store, "f").status().code(),
      StatusCode::kFailedPrecondition);
}

TEST(SealedFileTest, PublishAndReadRoundTrip) {
  const fs::path dir = FreshDir("sealed_file_publish");
  fs::create_directories(dir);
  const std::string path = (dir / "f.seg").string();
  EXPECT_EQ(cache::ReadFile(path).status().code(), StatusCode::kNotFound);
  const std::vector<std::uint8_t> bytes(40000, 0x5a);  // Several chunks.
  ASSERT_TRUE(cache::PublishFile(path, bytes).ok());
  auto back = cache::ReadFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, bytes);
  // The temp file was renamed away.
  EXPECT_EQ(std::distance(fs::directory_iterator(dir),
                          fs::directory_iterator()),
            1);
}

TEST(CacheStoreTest, ParsesAndNamesModes) {
  ASSERT_TRUE(cache::ParseCacheMode("rw").ok());
  EXPECT_EQ(*cache::ParseCacheMode("off"), cache::CacheMode::kOff);
  EXPECT_EQ(*cache::ParseCacheMode("read"), cache::CacheMode::kRead);
  EXPECT_EQ(*cache::ParseCacheMode("write"), cache::CacheMode::kWrite);
  EXPECT_EQ(*cache::ParseCacheMode("rw"), cache::CacheMode::kReadWrite);
  EXPECT_FALSE(cache::ParseCacheMode("always").ok());
  EXPECT_EQ(cache::CacheModeName(cache::CacheMode::kReadWrite), "rw");
}

TEST(CacheStoreTest, RoundTripsPayloadsAndCounts) {
  const fs::path dir = FreshDir("cache_store_roundtrip");
  obs::MetricsRegistry metrics;
  cache::CacheStore store(dir.string(), cache::CacheMode::kReadWrite,
                          &metrics);
  ASSERT_TRUE(store.Open().ok());

  const std::uint64_t key = 0x1234;
  EXPECT_FALSE(store.Get("em", key).ok());  // cold miss
  EXPECT_EQ(metrics.counter_value("cache.misses"), 1u);

  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  ASSERT_TRUE(store.Put("em", key, payload).ok());
  auto back = store.Get("em", key);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, payload);
  EXPECT_EQ(metrics.counter_value("cache.hits"), 1u);
  EXPECT_GT(metrics.counter_value("cache.bytes_written"), 0u);

  // Namespaces are disjoint key spaces.
  EXPECT_FALSE(store.Get("series", key).ok());
}

TEST(CacheStoreTest, ModesGateReadsAndWrites) {
  const fs::path dir = FreshDir("cache_store_modes");
  cache::CacheStore seeder(dir.string(), cache::CacheMode::kReadWrite);
  ASSERT_TRUE(seeder.Open().ok());
  const std::vector<std::uint8_t> payload = {9, 9, 9};
  ASSERT_TRUE(seeder.Put("em", 1, payload).ok());

  cache::CacheStore read_only(dir.string(), cache::CacheMode::kRead);
  ASSERT_TRUE(read_only.Open().ok());
  EXPECT_TRUE(read_only.can_read());
  EXPECT_FALSE(read_only.can_write());
  EXPECT_TRUE(read_only.Get("em", 1).ok());
  ASSERT_TRUE(read_only.Put("em", 2, payload).ok());  // silent no-op
  EXPECT_FALSE(read_only.Get("em", 2).ok());

  cache::CacheStore write_only(dir.string(), cache::CacheMode::kWrite);
  ASSERT_TRUE(write_only.Open().ok());
  EXPECT_FALSE(write_only.can_read());
  EXPECT_TRUE(write_only.can_write());
  EXPECT_FALSE(write_only.Get("em", 1).ok());  // reads disabled
  ASSERT_TRUE(write_only.Put("em", 3, payload).ok());
  EXPECT_TRUE(read_only.Get("em", 3).ok());
}

TEST(CacheStoreTest, CorruptEntryCountsAsReadError) {
  const fs::path dir = FreshDir("cache_store_corrupt");
  obs::MetricsRegistry metrics;
  cache::CacheStore store(dir.string(), cache::CacheMode::kReadWrite,
                          &metrics);
  ASSERT_TRUE(store.Open().ok());
  ASSERT_TRUE(store.Put("em", 5, {1, 2, 3}).ok());

  // Stomp the entry in place: the documented layout is
  // <dir>/<ns>/<key-hex>.snap.
  const fs::path entry = dir / "em" / (cache::KeyToHex(5) + ".snap");
  ASSERT_TRUE(fs::exists(entry));
  {
    std::ofstream stomp(entry, std::ios::binary | std::ios::trunc);
    stomp << "garbage";
  }
  EXPECT_FALSE(store.Get("em", 5).ok());
  EXPECT_EQ(metrics.counter_value("cache.read_errors"), 1u);
}

// Format version 1 entries (the byte-wise FNV checksum) predate the
// shared sealed-file codec; they read as plain misses, not corruption.
TEST(CacheStoreTest, VersionOneEntryReadsAsAPlainMiss) {
  const fs::path dir = FreshDir("cache_store_v1");
  obs::MetricsRegistry metrics;
  cache::CacheStore store(dir.string(), cache::CacheMode::kReadWrite,
                          &metrics);
  ASSERT_TRUE(store.Open().ok());

  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  cache::Hasher checksum;
  checksum.Mix(payload.size());
  for (std::uint8_t byte : payload) checksum.Mix(byte);
  cache::SnapshotWriter entry;
  entry.PutU32(0x4d494343);  // "MICC"
  entry.PutU32(1);
  entry.PutU64(checksum.digest());
  entry.PutU64(payload.size());
  std::vector<std::uint8_t> bytes = entry.Take();
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  fs::create_directories(dir / "series");
  {
    std::ofstream out(dir / "series" / (cache::KeyToHex(7) + ".snap"),
                      std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  auto old = store.Get("series", 7);
  ASSERT_FALSE(old.ok());
  EXPECT_EQ(old.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(metrics.counter_value("cache.misses"), 1u);
  EXPECT_EQ(metrics.counter_value("cache.read_errors"), 0u);

  // Rewriting the entry upgrades it in place.
  ASSERT_TRUE(store.Put("series", 7, payload).ok());
  auto fresh = store.Get("series", 7);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(*fresh, payload);
}

TEST(ModelSnapshotTest, RoundTripsBitExactly) {
  auto fitted = medmodel::MedicationModel::Fit(SmallMonth());
  ASSERT_TRUE(fitted.ok());
  const medmodel::MedicationModel& original = **fitted;

  auto restored = medmodel::MedicationModel::Deserialize(
      original.Serialize());
  ASSERT_TRUE(restored.ok());
  const medmodel::MedicationModel& copy = **restored;

  EXPECT_EQ(original.fit_stats().final_log_likelihood,
            copy.fit_stats().final_log_likelihood);
  EXPECT_EQ(original.fit_stats().iterations, copy.fit_stats().iterations);
  for (int d = 0; d < 2; ++d) {
    EXPECT_EQ(original.Eta(DiseaseId(d)), copy.Eta(DiseaseId(d)));
    for (int m = 0; m < 2; ++m) {
      EXPECT_EQ(original.Phi(DiseaseId(d), MedicineId(m)),
                copy.Phi(DiseaseId(d), MedicineId(m)));
    }
  }
  original.MonthlyPairCounts().ForEach(
      [&](DiseaseId d, MedicineId m, double value) {
        EXPECT_EQ(value, copy.MonthlyPairCounts().Get(d, m));
      });

  // Re-serializing the restored model reproduces the same bytes, so
  // chained warm runs keep hitting the same keys.
  EXPECT_EQ(original.Serialize(), copy.Serialize());
}

TEST(ModelSnapshotTest, RejectsTruncatedPayload) {
  auto fitted = medmodel::MedicationModel::Fit(SmallMonth());
  ASSERT_TRUE(fitted.ok());
  std::vector<std::uint8_t> payload = (*fitted)->Serialize();
  payload.resize(payload.size() / 2);
  EXPECT_FALSE(medmodel::MedicationModel::Deserialize(payload).ok());
}

// A warm-started EM fit runs to the same convergence tolerance as a
// cold one, so the likelihood it reaches must be equivalent even when
// the prior month differs slightly.
TEST(WarmStartTest, WarmFitReachesColdLikelihood) {
  const MonthlyDataset month = SmallMonth();
  auto cold = medmodel::MedicationModel::Fit(month);
  ASSERT_TRUE(cold.ok());

  auto prior = medmodel::MedicationModel::Fit(SmallMonth(5));
  ASSERT_TRUE(prior.ok());

  medmodel::MedicationModelOptions options;
  options.warm_start = true;
  auto warm = medmodel::MedicationModel::Fit(month, options, prior->get());
  ASSERT_TRUE(warm.ok());

  const double cold_ll = (*cold)->fit_stats().final_log_likelihood;
  const double warm_ll = (*warm)->fit_stats().final_log_likelihood;
  EXPECT_NEAR(warm_ll, cold_ll, 1e-3 * std::fabs(cold_ll));
}

TEST(ReproduceCacheTest, WarmRerunServesEverySnapshot) {
  auto world = synth::World::Create(synth::MakeTinyWorldConfig(6, 99));
  ASSERT_TRUE(world.ok());
  synth::ClaimGenerator generator(&*world);
  auto data = generator.Generate();
  ASSERT_TRUE(data.ok());

  const fs::path dir = FreshDir("reproduce_cache");
  medmodel::ReproducerOptions options;
  options.filter_options.min_disease_count = 1;
  options.filter_options.min_medicine_count = 1;

  obs::MetricsRegistry cold_metrics;
  cache::CacheStore seed_store(dir.string(), cache::CacheMode::kWrite,
                               &cold_metrics);
  ASSERT_TRUE(seed_store.Open().ok());
  ExecContext cold_context;
  cold_context.metrics = &cold_metrics;
  cold_context.cache = &seed_store;
  auto cold = medmodel::ReproduceSeries(data->corpus, options, cold_context);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold_metrics.counter_value("reproduce.snapshot_hits"), 0u);

  obs::MetricsRegistry warm_metrics;
  cache::CacheStore warm_store(dir.string(), cache::CacheMode::kRead,
                               &warm_metrics);
  ASSERT_TRUE(warm_store.Open().ok());
  ExecContext warm_context;
  warm_context.metrics = &warm_metrics;
  warm_context.cache = &warm_store;
  auto warm = medmodel::ReproduceSeries(data->corpus, options, warm_context);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm_metrics.counter_value("reproduce.snapshot_hits"), 6u);
  EXPECT_EQ(warm_metrics.counter_value("reproduce.months_fitted"), 0u);

  ASSERT_EQ(cold->num_pairs(), warm->num_pairs());
  cold->ForEachPair([&](DiseaseId d, MedicineId m,
                        const std::vector<double>& series) {
    EXPECT_EQ(series, warm->Prescription(d, m));
  });
}

void ExpectAnalysesBitIdentical(
    const std::vector<trend::SeriesAnalysis>& a,
    const std::vector<trend::SeriesAnalysis>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind) << i;
    EXPECT_EQ(a[i].has_change, b[i].has_change) << i;
    EXPECT_EQ(a[i].change_point, b[i].change_point) << i;
    EXPECT_EQ(a[i].aic, b[i].aic) << i;        // bitwise
    EXPECT_EQ(a[i].lambda, b[i].lambda) << i;  // bitwise
    EXPECT_EQ(a[i].scale, b[i].scale) << i;
    EXPECT_EQ(a[i].fits_performed, b[i].fits_performed) << i;
  }
}

void ExpectReportsBitIdentical(const trend::TrendReport& a,
                               const trend::TrendReport& b) {
  ExpectAnalysesBitIdentical(a.diseases, b.diseases);
  ExpectAnalysesBitIdentical(a.medicines, b.medicines);
  ExpectAnalysesBitIdentical(a.prescriptions, b.prescriptions);
}

trend::PipelineConfig TinyWorldConfig(const fs::path& dir,
                                      cache::CacheMode mode) {
  trend::PipelineConfig config;
  config.reproducer.filter_options.min_disease_count = 1;
  config.reproducer.filter_options.min_medicine_count = 1;
  config.reproducer.min_series_total = 10.0;
  config.analyzer.detector.seasonal = false;  // 24-month window
  config.analyzer.detector.fit.optimizer.max_evaluations = 150;
  config.cache.directory = dir.string();
  config.cache.mode = mode;
  return config;
}

TEST(PipelineCacheTest, WarmRerunIsBitIdenticalAtOneAndFourThreads) {
  auto world = synth::World::Create(synth::MakeTinyWorldConfig(24, 5));
  ASSERT_TRUE(world.ok());
  synth::ClaimGenerator generator(&*world);
  auto data = generator.Generate();
  ASSERT_TRUE(data.ok());

  const fs::path dir = FreshDir("pipeline_cache_warm");
  auto seeded = trend::RunPipeline(
      data->corpus, TinyWorldConfig(dir, cache::CacheMode::kWrite));
  ASSERT_TRUE(seeded.ok());

  for (int threads : {1, 4}) {
    runtime::ThreadPool pool(threads);
    obs::MetricsRegistry metrics;
    ExecContext context;
    context.pool = &pool;
    context.metrics = &metrics;
    auto warm = trend::RunPipeline(
        data->corpus, TinyWorldConfig(dir, cache::CacheMode::kRead),
        context);
    ASSERT_TRUE(warm.ok()) << "threads " << threads;
    ExpectReportsBitIdentical(seeded->report, warm->report);
    EXPECT_GT(metrics.counter_value("trend.series_cache_hits"), 0u)
        << "threads " << threads;
    EXPECT_EQ(metrics.counter_value("trend.series_cache_misses"), 0u)
        << "threads " << threads;
    EXPECT_EQ(metrics.counter_value("cache.read_errors"), 0u);
  }
}

TEST(PipelineCacheTest, CorruptedSnapshotsFallBackToColdResults) {
  auto world = synth::World::Create(synth::MakeTinyWorldConfig(24, 5));
  ASSERT_TRUE(world.ok());
  synth::ClaimGenerator generator(&*world);
  auto data = generator.Generate();
  ASSERT_TRUE(data.ok());

  const fs::path dir = FreshDir("pipeline_cache_corrupt");
  auto seeded = trend::RunPipeline(
      data->corpus, TinyWorldConfig(dir, cache::CacheMode::kWrite));
  ASSERT_TRUE(seeded.ok());

  // Stomp every snapshot in the store.
  std::size_t stomped = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::ofstream stomp(entry.path(), std::ios::binary | std::ios::trunc);
    stomp << "not a snapshot";
    ++stomped;
  }
  ASSERT_GT(stomped, 0u);

  obs::MetricsRegistry metrics;
  ExecContext context;
  context.metrics = &metrics;
  auto warm = trend::RunPipeline(
      data->corpus, TinyWorldConfig(dir, cache::CacheMode::kRead), context);
  ASSERT_TRUE(warm.ok());
  EXPECT_GT(metrics.counter_value("cache.read_errors"), 0u);
  EXPECT_EQ(metrics.counter_value("cache.hits"), 0u);
  // Every stage recomputed cold — and reproduced the seeded run's
  // numbers exactly, because hit/miss never changes the math.
  ExpectReportsBitIdentical(seeded->report, warm->report);
}

// A hit must carry the tags of the series it answers, not just its
// key: an entry whose payload names another kind (a key collision, or
// bytes from a foreign writer) is refitted and counted as a miss, in
// the flat "series" namespace and the drill-down "drill" namespace
// alike.
TEST(PipelineCacheTest, EntriesTaggedWithAnotherKindAreRefittedAsMisses) {
  auto world = synth::World::Create(synth::MakeTinyWorldConfig(24, 5));
  ASSERT_TRUE(world.ok());
  synth::ClaimGenerator generator(&*world);
  auto data = generator.Generate();
  ASSERT_TRUE(data.ok());

  const fs::path dir = FreshDir("pipeline_cache_collision");
  trend::PipelineConfig config =
      TinyWorldConfig(dir, cache::CacheMode::kWrite);
  config.drilldown_axes = {trend::DrillAxis::kMedicine};
  auto cold = trend::RunPipeline(data->corpus, config);
  ASSERT_TRUE(cold.ok());

  cache::CacheStore retagger(dir.string(), cache::CacheMode::kReadWrite);
  ASSERT_TRUE(retagger.Open().ok());
  for (const char* ns : {"series", "drill"}) {
    ASSERT_TRUE(fs::is_directory(dir / ns)) << ns;
    const fs::path entry = fs::directory_iterator(dir / ns)->path();
    const std::uint64_t key =
        std::stoull(entry.stem().string(), nullptr, 16);
    auto payload = retagger.Get(ns, key);
    ASSERT_TRUE(payload.ok()) << ns;
    auto analysis = trend::DeserializeAnalysis(*payload);
    ASSERT_TRUE(analysis.ok()) << ns;
    analysis->kind = analysis->kind == trend::SeriesKind::kDisease
                         ? trend::SeriesKind::kPrescription
                         : trend::SeriesKind::kDisease;
    ASSERT_TRUE(
        retagger.Put(ns, key, trend::SerializeAnalysis(*analysis)).ok());
  }

  obs::MetricsRegistry metrics;
  ExecContext context;
  context.metrics = &metrics;
  config.cache.mode = cache::CacheMode::kRead;
  auto warm = trend::RunPipeline(data->corpus, config, context);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(metrics.counter_value("trend.series_cache_misses"), 1u);
  EXPECT_EQ(metrics.counter_value("trend.rollup.cache_misses"), 1u);
  EXPECT_GT(metrics.counter_value("trend.series_cache_hits"), 0u);
  EXPECT_EQ(metrics.counter_value("cache.read_errors"), 0u);
  ExpectReportsBitIdentical(cold->report, warm->report);
  ASSERT_EQ(warm->drilldowns.size(), 1u);
  const auto& cold_nodes = cold->drilldowns[0].nodes;
  const auto& warm_nodes = warm->drilldowns[0].nodes;
  ASSERT_EQ(cold_nodes.size(), warm_nodes.size());
  for (std::size_t i = 0; i < cold_nodes.size(); ++i) {
    EXPECT_EQ(cold_nodes[i].analysis.kind, warm_nodes[i].analysis.kind)
        << i;
    EXPECT_EQ(cold_nodes[i].analysis.change_point,
              warm_nodes[i].analysis.change_point)
        << i;
    EXPECT_EQ(cold_nodes[i].analysis.aic, warm_nodes[i].analysis.aic) << i;
    EXPECT_EQ(cold_nodes[i].analysis.lambda, warm_nodes[i].analysis.lambda)
        << i;
  }
}

TEST(PipelineCacheTest, UnopenableCacheDirectoryDegradesToColdRun) {
  auto world = synth::World::Create(synth::MakeTinyWorldConfig(24, 5));
  ASSERT_TRUE(world.ok());
  synth::ClaimGenerator generator(&*world);
  auto data = generator.Generate();
  ASSERT_TRUE(data.ok());

  // A file where the cache directory should be: Open() fails, the
  // pipeline warns and runs cold instead of erroring out.
  const fs::path dir = FreshDir("pipeline_cache_blocked");
  { std::ofstream blocker(dir); blocker << "x"; }
  auto result = trend::RunPipeline(
      data->corpus, TinyWorldConfig(dir, cache::CacheMode::kReadWrite));
  EXPECT_TRUE(result.ok());
}

TEST(PipelineConfigTest, ValidateNamesTheOffendingFlag) {
  trend::PipelineConfig config;
  EXPECT_TRUE(config.Validate().ok());  // defaults are valid (cache off)

  config.cache.mode = cache::CacheMode::kRead;
  Status missing_dir = config.Validate();
  ASSERT_FALSE(missing_dir.ok());
  EXPECT_NE(missing_dir.message().find("--cache-dir"), std::string::npos);

  config.cache.mode = cache::CacheMode::kOff;
  config.cache.directory = "somewhere";
  Status missing_mode = config.Validate();
  ASSERT_FALSE(missing_mode.ok());
  EXPECT_NE(missing_mode.message().find("--cache"), std::string::npos);

  config.cache.directory.clear();
  config.analyzer.detector.min_candidate = 0;
  EXPECT_FALSE(config.Validate().ok());
  config.analyzer.detector.min_candidate = 2;
  config.analyzer.detector.candidate_kinds.clear();
  EXPECT_FALSE(config.Validate().ok());
}

TEST(KalmanWorkspaceTest, FilterPassesReuseTheThreadLocalWorkspace) {
  std::vector<double> series(30);
  for (int t = 0; t < 30; ++t) {
    series[t] = 1.0 + 0.1 * t + 0.2 * std::sin(0.9 * t);
  }
  ssm::StructuralSpec spec;
  spec.seasonal = false;
  ssm::FitOptions options;
  options.optimizer.max_evaluations = 120;
  auto fitted = ssm::FitStructuralModel(series, spec, options);
  ASSERT_TRUE(fitted.ok());

  ssm::KalmanWorkspace& workspace = ssm::KalmanWorkspace::ThreadLocal();
  const std::uint64_t before = workspace.acquires;
  ASSERT_TRUE(ssm::RunFilter(fitted->model, series).ok());
  EXPECT_EQ(workspace.acquires, before + 1);
}

}  // namespace
}  // namespace mic
