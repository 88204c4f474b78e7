#include "store/claim_store.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/cache_store.h"
#include "cache/fingerprint.h"
#include "common/exec_context.h"
#include "medmodel/timeseries.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"
#include "store/backend.h"
#include "synth/generator.h"
#include "synth/scenario.h"
#include "trend/pipeline.h"

namespace mic {
namespace {

namespace fs = std::filesystem;

fs::path FreshDir(const char* name) {
  fs::path dir = fs::path(::testing::TempDir()) / name;
  std::error_code ec;
  fs::remove_all(dir, ec);
  return dir;
}

MicCorpus TinyCorpus(int months, std::uint64_t seed) {
  auto world = synth::World::Create(synth::MakeTinyWorldConfig(months, seed));
  EXPECT_TRUE(world.ok());
  synth::ClaimGenerator generator(&*world);
  auto data = generator.Generate();
  EXPECT_TRUE(data.ok());
  return std::move(data->corpus);
}

// The first `months` months of `corpus`, sharing its catalog — the
// shape of last month's CSV batch next to this month's full one.
MicCorpus Prefix(const MicCorpus& corpus, std::size_t months) {
  MicCorpus prefix(corpus.shared_catalog());
  for (std::size_t t = 0; t < months; ++t) {
    EXPECT_TRUE(prefix.AddMonth(corpus.month(t)).ok());
  }
  return prefix;
}

void ExpectCorporaBitIdentical(const MicCorpus& a, const MicCorpus& b) {
  ASSERT_EQ(a.num_months(), b.num_months());
  for (std::size_t t = 0; t < a.num_months(); ++t) {
    EXPECT_EQ(a.month(t).month(), b.month(t).month()) << t;
    EXPECT_EQ(a.month(t).records(), b.month(t).records()) << t;
  }
  const Catalog& ca = a.catalog();
  const Catalog& cb = b.catalog();
  ASSERT_EQ(ca.diseases().size(), cb.diseases().size());
  for (std::uint32_t i = 0; i < ca.diseases().size(); ++i) {
    EXPECT_EQ(ca.diseases().Name(DiseaseId(i)),
              cb.diseases().Name(DiseaseId(i)));
  }
  ASSERT_EQ(ca.medicines().size(), cb.medicines().size());
  for (std::uint32_t i = 0; i < ca.medicines().size(); ++i) {
    EXPECT_EQ(ca.medicines().Name(MedicineId(i)),
              cb.medicines().Name(MedicineId(i)));
  }
  ASSERT_EQ(ca.hospitals().size(), cb.hospitals().size());
  for (std::uint32_t i = 0; i < ca.hospitals().size(); ++i) {
    EXPECT_EQ(ca.hospitals().Name(HospitalId(i)),
              cb.hospitals().Name(HospitalId(i)));
    auto info_a = ca.GetHospitalInfo(HospitalId(i));
    auto info_b = cb.GetHospitalInfo(HospitalId(i));
    ASSERT_EQ(info_a.ok(), info_b.ok()) << i;
    if (info_a.ok()) {
      EXPECT_EQ(info_a->city, info_b->city) << i;
      EXPECT_EQ(info_a->beds, info_b->beds) << i;
    }
  }
  ASSERT_EQ(ca.patients().size(), cb.patients().size());
  for (std::uint32_t i = 0; i < ca.patients().size(); ++i) {
    EXPECT_EQ(ca.patients().Name(PatientId(i)),
              cb.patients().Name(PatientId(i)));
  }
}

TEST(BackendTest, ParsesAndNamesKinds) {
  ASSERT_TRUE(store::ParseBackendKind("auto").ok());
  EXPECT_EQ(*store::ParseBackendKind("auto"), store::BackendKind::kAuto);
  EXPECT_EQ(*store::ParseBackendKind("mmap"), store::BackendKind::kMmap);
  EXPECT_EQ(*store::ParseBackendKind("file"), store::BackendKind::kFile);
  EXPECT_FALSE(store::ParseBackendKind("fast").ok());
  EXPECT_EQ(store::BackendKindName(store::BackendKind::kFile), "file");
}

TEST(BackendTest, AutoResolvesToARealBackend) {
  auto backend = store::MakeBackend(store::BackendKind::kAuto);
  ASSERT_TRUE(backend.ok());
  if (store::MmapAvailable()) {
    EXPECT_EQ((*backend)->name(), "mmap");
  } else {
    EXPECT_EQ((*backend)->name(), "file");
  }
}

TEST(ClaimStoreTest, RoundTripsACorpusBitIdentically) {
  const MicCorpus corpus = TinyCorpus(6, 99);
  const fs::path dir = FreshDir("store_roundtrip");

  obs::MetricsRegistry metrics;
  auto opened = store::ClaimStore::Open(dir.string(), {}, &metrics);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened->num_months(), 0u);
  EXPECT_FALSE(opened->OpenWorld().ok());  // Empty store is an error.

  auto appended = store::ImportCorpus(corpus, *opened);
  ASSERT_TRUE(appended.ok());
  EXPECT_EQ(*appended, corpus.num_months());
  EXPECT_EQ(metrics.counter_value("store.records_written"),
            corpus.TotalRecords());

  auto loaded = opened->OpenWorld();
  ASSERT_TRUE(loaded.ok());
  ExpectCorporaBitIdentical(corpus, *loaded);
  EXPECT_EQ(metrics.counter_value("store.records_read"),
            corpus.TotalRecords());

  // Every loaded month carries its persisted content fingerprint, and
  // it is the digest the cache layer would have computed itself.
  for (std::size_t t = 0; t < loaded->num_months(); ++t) {
    ASSERT_TRUE(loaded->month(t).has_content_fingerprint()) << t;
    EXPECT_EQ(loaded->month(t).content_fingerprint(),
              cache::FingerprintMonth(corpus.month(t)))
        << t;
  }
  // A CSV-built month carries no stamp.
  EXPECT_FALSE(corpus.month(0).has_content_fingerprint());
}

TEST(ClaimStoreTest, MmapAndFileBackendsLoadTheSameWorld) {
  if (!store::MmapAvailable()) GTEST_SKIP() << "no mmap on this platform";
  const MicCorpus corpus = TinyCorpus(5, 11);
  const fs::path dir = FreshDir("store_backends");

  auto writer = store::ClaimStore::Open(
      dir.string(), {.backend = store::BackendKind::kMmap});
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(store::ImportCorpus(corpus, *writer).ok());

  auto via_mmap = store::ClaimStore::Open(
      dir.string(), {.backend = store::BackendKind::kMmap});
  auto via_file = store::ClaimStore::Open(
      dir.string(), {.backend = store::BackendKind::kFile});
  ASSERT_TRUE(via_mmap.ok());
  ASSERT_TRUE(via_file.ok());
  EXPECT_EQ(via_mmap->backend_name(), "mmap");
  EXPECT_EQ(via_file->backend_name(), "file");
  EXPECT_EQ(via_mmap->Fingerprint(), via_file->Fingerprint());

  auto world_mmap = via_mmap->OpenWorld();
  auto world_file = via_file->OpenWorld();
  ASSERT_TRUE(world_mmap.ok());
  ASSERT_TRUE(world_file.ok());
  ExpectCorporaBitIdentical(*world_mmap, *world_file);
}

TEST(ClaimStoreTest, AppendExtendsTheWorldAndRekeysTheFingerprint) {
  const MicCorpus full = TinyCorpus(7, 42);
  const MicCorpus prefix = Prefix(full, 6);
  const fs::path dir = FreshDir("store_append");

  auto opened = store::ClaimStore::Open(dir.string());
  ASSERT_TRUE(opened.ok());
  ASSERT_TRUE(store::ImportCorpus(prefix, *opened).ok());
  const std::uint64_t before = opened->Fingerprint();

  // Re-importing the same world is a no-op.
  auto again = store::ImportCorpus(prefix, *opened);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 0u);
  EXPECT_EQ(opened->Fingerprint(), before);

  // The monthly batch: one new month appended, earlier segments kept.
  auto appended = store::ImportCorpus(full, *opened);
  ASSERT_TRUE(appended.ok());
  EXPECT_EQ(*appended, 1u);
  EXPECT_EQ(opened->num_months(), 7u);
  EXPECT_NE(opened->Fingerprint(), before);

  // A reopened store sees the appended world, bit-identically.
  auto reopened = store::ClaimStore::Open(dir.string());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->Fingerprint(), opened->Fingerprint());
  auto world = reopened->OpenWorld();
  ASSERT_TRUE(world.ok());
  ExpectCorporaBitIdentical(full, *world);
}

TEST(ClaimStoreTest, RejectsConflictingOrOutOfOrderAppends) {
  const MicCorpus corpus = TinyCorpus(4, 3);
  const fs::path dir = FreshDir("store_conflicts");

  auto opened = store::ClaimStore::Open(dir.string());
  ASSERT_TRUE(opened.ok());
  ASSERT_TRUE(store::ImportCorpus(corpus, *opened).ok());

  // A corpus whose overlapping months differ must not silently rewrite
  // history.
  const MicCorpus other = TinyCorpus(4, 4);
  auto conflict = store::ImportCorpus(other, *opened);
  ASSERT_FALSE(conflict.ok());
  EXPECT_NE(conflict.status().message().find("differs"), std::string::npos);

  // AppendMonth enforces the consecutive-months contract directly.
  MonthlyDataset wrong_index(static_cast<MonthIndex>(99));
  EXPECT_FALSE(
      opened->AppendMonth(wrong_index, corpus.catalog()).ok());

  // Records must resolve in the catalog they are stored against.
  MonthlyDataset next(static_cast<MonthIndex>(corpus.num_months()));
  MicRecord alien;
  alien.hospital = HospitalId(0);
  alien.patient = PatientId(0);
  alien.diseases.push_back({DiseaseId(1u << 20), 1});
  next.AddRecord(alien);
  EXPECT_FALSE(opened->AppendMonth(next, corpus.catalog()).ok());
}

TEST(ClaimStoreTest, CorruptSegmentFailsLoudlyAndCounts) {
  const MicCorpus corpus = TinyCorpus(4, 17);
  const fs::path dir = FreshDir("store_corrupt");

  {
    auto seeder = store::ClaimStore::Open(dir.string());
    ASSERT_TRUE(seeder.ok());
    ASSERT_TRUE(store::ImportCorpus(corpus, *seeder).ok());
  }
  {
    std::ofstream stomp(dir / "m0002.seg",
                        std::ios::binary | std::ios::trunc);
    stomp << "garbage";
  }

  obs::MetricsRegistry metrics;
  auto opened = store::ClaimStore::Open(dir.string(), {}, &metrics);
  ASSERT_TRUE(opened.ok());  // The manifest itself is intact.
  auto world = opened->OpenWorld();
  ASSERT_FALSE(world.ok());  // Source of truth: no silent degradation.
  EXPECT_EQ(metrics.counter_value("store.read_errors"), 1u);

  // A corrupt manifest refuses to open outright — "empty store" would
  // let a later append bury the old world.
  {
    std::ofstream stomp(dir / "MANIFEST",
                        std::ios::binary | std::ios::trunc);
    stomp << "garbage";
  }
  EXPECT_FALSE(store::ClaimStore::Open(dir.string()).ok());
}

TEST(ClaimStoreTest, StaleSegmentAfterHistoryEditIsDetected) {
  const MicCorpus corpus = TinyCorpus(3, 23);
  const fs::path dir = FreshDir("store_stale");
  auto seeder = store::ClaimStore::Open(dir.string());
  ASSERT_TRUE(seeder.ok());
  ASSERT_TRUE(store::ImportCorpus(corpus, *seeder).ok());

  // Swap two month segments: each file is internally consistent
  // (envelope checks pass) but disagrees with the manifest's per-month
  // fingerprints — exactly the torn-edit shape the embedded digest
  // exists to catch.
  fs::rename(dir / "m0001.seg", dir / "tmp.seg");
  fs::rename(dir / "m0002.seg", dir / "m0001.seg");
  fs::rename(dir / "tmp.seg", dir / "m0002.seg");

  auto opened = store::ClaimStore::Open(dir.string());
  ASSERT_TRUE(opened.ok());
  EXPECT_FALSE(opened->OpenWorld().ok());
}

// `corpus` on a copy of its catalog, with the first record of the last
// month moved to a patient name the original catalog lacks, so
// appending that month changes the stored dictionary.
MicCorpus WithNewPatientInLastMonth(const MicCorpus& corpus) {
  MicCorpus out(std::make_shared<Catalog>(corpus.catalog()));
  for (std::size_t t = 0; t < corpus.num_months(); ++t) {
    MonthlyDataset month = corpus.month(t);
    if (t + 1 == corpus.num_months()) {
      month.mutable_records().front().patient =
          out.catalog().patients().Intern("patient-renamed");
    }
    EXPECT_TRUE(out.AddMonth(std::move(month)).ok());
  }
  return out;
}

std::vector<std::string> StoreFiles(const fs::path& dir) {
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

// The MANIFEST is the only commit point: an append cut after any of its
// three writes (segment; segment + dictionary; all three), with or
// without a stray temp file from a write cut mid-way, opens to exactly
// the old world or exactly the new one.
TEST(ClaimStoreTest, InterruptedAppendOpensToTheOldOrTheNewWorld) {
  const MicCorpus base = TinyCorpus(13, 8);
  const MicCorpus old_world = Prefix(base, 12);
  const MicCorpus full = WithNewPatientInLastMonth(base);
  const fs::path root = FreshDir("store_torn");
  const fs::path before = root / "before";
  const fs::path after = root / "after";
  {
    auto seeder = store::ClaimStore::Open(before.string());
    ASSERT_TRUE(seeder.ok());
    ASSERT_TRUE(store::ImportCorpus(old_world, *seeder).ok());
  }
  fs::copy(before, after);
  {
    auto appender = store::ClaimStore::Open(after.string());
    ASSERT_TRUE(appender.ok());
    auto appended = store::ImportCorpus(full, *appender);
    ASSERT_TRUE(appended.ok());
    ASSERT_EQ(*appended, 1u);
  }
  // The renamed patient moved the dictionary to a new name, and the
  // superseded one is gone after the commit.
  std::vector<std::string> old_files = StoreFiles(before);
  std::vector<std::string> new_files = StoreFiles(after);
  const auto is_dict = [](const std::string& name) {
    return name.rfind("dict-", 0) == 0;
  };
  ASSERT_EQ(std::count_if(old_files.begin(), old_files.end(), is_dict), 1);
  ASSERT_EQ(std::count_if(new_files.begin(), new_files.end(), is_dict), 1);
  const std::string old_dict =
      *std::find_if(old_files.begin(), old_files.end(), is_dict);
  const std::string new_dict =
      *std::find_if(new_files.begin(), new_files.end(), is_dict);
  ASSERT_NE(old_dict, new_dict);

  struct Cut {
    const char* name;
    std::vector<std::string> written;  // Files taken from `after`.
    std::size_t months;
  };
  const std::vector<Cut> cuts = {
      {"segment", {"m0012.seg"}, 12},
      {"segment+dict", {"m0012.seg", new_dict}, 12},
      {"all", {"m0012.seg", new_dict, "MANIFEST"}, 13},
  };
  for (const Cut& cut : cuts) {
    for (bool stray_tmp : {false, true}) {
      const fs::path dir =
          root / (std::string(cut.name) + (stray_tmp ? "_tmp" : ""));
      fs::copy(before, dir);
      for (const std::string& name : cut.written) {
        fs::copy_file(after / name, dir / name,
                      fs::copy_options::overwrite_existing);
      }
      if (stray_tmp) {
        std::ofstream torn(dir / "MANIFEST.tmp12345", std::ios::binary);
        torn << "half a manifest";
      }
      SCOPED_TRACE(dir.filename().string());
      auto opened = store::ClaimStore::Open(dir.string());
      ASSERT_TRUE(opened.ok()) << opened.status();
      EXPECT_EQ(opened->num_months(), cut.months);
      auto world = opened->OpenWorld();
      ASSERT_TRUE(world.ok()) << world.status();
      ExpectCorporaBitIdentical(cut.months == 13 ? full : old_world,
                                *world);
    }
  }
}

// Stores written before dictionaries were named by their fingerprint
// hold one dict.seg; they open unchanged, and the next append moves
// them to the named layout.
TEST(ClaimStoreTest, LegacyDictionaryFileStillOpens) {
  const MicCorpus full = TinyCorpus(5, 13);
  const fs::path dir = FreshDir("store_legacy_dict");
  {
    auto seeder = store::ClaimStore::Open(dir.string());
    ASSERT_TRUE(seeder.ok());
    ASSERT_TRUE(store::ImportCorpus(Prefix(full, 4), *seeder).ok());
  }
  for (const std::string& name : StoreFiles(dir)) {
    if (name.rfind("dict-", 0) == 0) fs::rename(dir / name, dir / "dict.seg");
  }
  obs::MetricsRegistry metrics;
  auto legacy = store::ClaimStore::Open(dir.string(), {}, &metrics);
  ASSERT_TRUE(legacy.ok());
  auto world = legacy->OpenWorld();
  ASSERT_TRUE(world.ok()) << world.status();
  ExpectCorporaBitIdentical(Prefix(full, 4), *world);
  EXPECT_EQ(metrics.counter_value("store.read_errors"), 0u);

  auto appended = store::ImportCorpus(full, *legacy);
  ASSERT_TRUE(appended.ok());
  EXPECT_EQ(*appended, 1u);
  EXPECT_FALSE(fs::exists(dir / "dict.seg"));
  auto reopened = store::ClaimStore::Open(dir.string());
  ASSERT_TRUE(reopened.ok());
  auto grown = reopened->OpenWorld();
  ASSERT_TRUE(grown.ok()) << grown.status();
  ExpectCorporaBitIdentical(full, *grown);
}

trend::PipelineConfig TinyPipelineConfig() {
  trend::PipelineConfig config;
  config.reproducer.filter_options.min_disease_count = 1;
  config.reproducer.filter_options.min_medicine_count = 1;
  config.reproducer.min_series_total = 10.0;
  config.analyzer.detector.seasonal = false;  // 24-month window
  config.analyzer.detector.fit.optimizer.max_evaluations = 150;
  return config;
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
  }
}

// The acceptance bar for the whole subsystem: a store-ingested pipeline
// run reports exactly what the CSV-corpus run reports, serial and
// parallel.
TEST(StorePipelineTest, StoreRunMatchesCorpusRunAtOneAndFourThreads) {
  const MicCorpus corpus = TinyCorpus(24, 5);
  const fs::path dir = FreshDir("store_pipeline");
  {
    auto seeder = store::ClaimStore::Open(dir.string());
    ASSERT_TRUE(seeder.ok());
    ASSERT_TRUE(store::ImportCorpus(corpus, *seeder).ok());
  }

  auto from_corpus = trend::RunPipeline(corpus, TinyPipelineConfig());
  ASSERT_TRUE(from_corpus.ok());

  for (int threads : {1, 4}) {
    runtime::ThreadPool pool(threads);
    obs::MetricsRegistry metrics;
    ExecContext context;
    context.pool = &pool;
    context.metrics = &metrics;
    trend::PipelineConfig config = TinyPipelineConfig();
    config.store.directory = dir.string();
    auto from_store = trend::RunPipelineFromStore(config, context);
    ASSERT_TRUE(from_store.ok()) << "threads " << threads;
    ExpectAnalysesBitIdentical(from_corpus->report.diseases,
                               from_store->report.diseases);
    ExpectAnalysesBitIdentical(from_corpus->report.medicines,
                               from_store->report.medicines);
    ExpectAnalysesBitIdentical(from_corpus->report.prescriptions,
                               from_store->report.prescriptions);
    EXPECT_EQ(metrics.counter_value("store.read_errors"), 0u);
    EXPECT_GT(metrics.counter_value("store.segments_read"), 0u);
  }
}

// Store-stamped fingerprints feed the cache layer without re-hashing:
// a warm rerun over a store-loaded corpus hits every snapshot and
// counts one fingerprint reuse per non-empty month.
TEST(StorePipelineTest, StampedFingerprintsDriveCacheWarmStarts) {
  const MicCorpus corpus = TinyCorpus(6, 99);
  const fs::path store_dir = FreshDir("store_warm_store");
  const fs::path cache_dir = FreshDir("store_warm_cache");
  {
    auto seeder = store::ClaimStore::Open(store_dir.string());
    ASSERT_TRUE(seeder.ok());
    ASSERT_TRUE(store::ImportCorpus(corpus, *seeder).ok());
  }
  auto opened = store::ClaimStore::Open(store_dir.string());
  ASSERT_TRUE(opened.ok());
  auto loaded = opened->OpenWorld();
  ASSERT_TRUE(loaded.ok());

  medmodel::ReproducerOptions options;
  options.filter_options.min_disease_count = 1;
  options.filter_options.min_medicine_count = 1;

  obs::MetricsRegistry cold_metrics;
  cache::CacheStore seed_cache(cache_dir.string(),
                               cache::CacheMode::kWrite, &cold_metrics);
  ASSERT_TRUE(seed_cache.Open().ok());
  ExecContext cold_context;
  cold_context.metrics = &cold_metrics;
  cold_context.cache = &seed_cache;
  auto cold = medmodel::ReproduceSeries(*loaded, options, cold_context);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold_metrics.counter_value("reproduce.fingerprint_reuses"),
            loaded->num_months());

  obs::MetricsRegistry warm_metrics;
  cache::CacheStore warm_cache(cache_dir.string(), cache::CacheMode::kRead,
                               &warm_metrics);
  ASSERT_TRUE(warm_cache.Open().ok());
  ExecContext warm_context;
  warm_context.metrics = &warm_metrics;
  warm_context.cache = &warm_cache;
  auto warm = medmodel::ReproduceSeries(*loaded, options, warm_context);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm_metrics.counter_value("reproduce.snapshot_hits"),
            loaded->num_months());
  EXPECT_EQ(warm_metrics.counter_value("reproduce.months_fitted"), 0u);

  ASSERT_EQ(cold->num_pairs(), warm->num_pairs());
  cold->ForEachPair([&](DiseaseId d, MedicineId m,
                        const std::vector<double>& series) {
    EXPECT_EQ(series, warm->Prescription(d, m));
  });
}

}  // namespace
}  // namespace mic
