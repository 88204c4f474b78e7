#include "obs/metrics.h"

#include <filesystem>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "medmodel/medication_model.h"
#include "obs/runtime_metrics.h"
#include "obs/trace.h"
#include "runtime/thread_pool.h"
#include "store/claim_store.h"
#include "synth/generator.h"
#include "synth/scenario.h"
#include "trend/pipeline.h"

namespace mic::obs {
namespace {

TEST(MetricsRegistryTest, CounterConcurrentIncrementsAreExact) {
  MetricsRegistry registry;
  Counter* counter = registry.counter("test.hits");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter] {
      for (int i = 0; i < kPerThread; ++i) counter->Increment();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter->value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(registry.counter_value("test.hits"), counter->value());
  EXPECT_EQ(registry.counter_value("never.touched"), 0u);
}

TEST(MetricsRegistryTest, HandlesAreStableAndSharedByName) {
  MetricsRegistry registry;
  Counter* first = registry.counter("a");
  registry.counter("b");
  registry.counter("c");
  EXPECT_EQ(first, registry.counter("a"));
  first->Increment(3);
  EXPECT_EQ(registry.counter_value("a"), 3u);
}

TEST(HistogramTest, BucketEdgesAreInclusiveUpperBounds) {
  MetricsRegistry registry;
  Histogram* histogram = registry.histogram("h", {1.0, 2.0});
  histogram->Observe(0.5);  // <= 1.0 -> bucket 0
  histogram->Observe(1.0);  // == edge -> bucket 0 (value <= edge)
  histogram->Observe(1.5);  // bucket 1
  histogram->Observe(2.0);  // bucket 1
  histogram->Observe(99.0);  // overflow (+inf) bucket
  EXPECT_EQ(histogram->bucket_count(0), 2u);
  EXPECT_EQ(histogram->bucket_count(1), 2u);
  EXPECT_EQ(histogram->bucket_count(2), 1u);
  EXPECT_EQ(histogram->count(), 5u);
  EXPECT_DOUBLE_EQ(histogram->sum(), 0.5 + 1.0 + 1.5 + 2.0 + 99.0);
  // A second resolution by name returns the same instance; the edges
  // argument is ignored after creation.
  EXPECT_EQ(histogram, registry.histogram("h", {7.0}));
  EXPECT_EQ(histogram->edges(), (std::vector<double>{1.0, 2.0}));
}

TEST(HistogramTest, ConcurrentObservationsKeepExactBucketCounts) {
  MetricsRegistry registry;
  Histogram* histogram = registry.histogram("h", {10.0, 20.0});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 3000;  // Divisible by the 30-value cycle.
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([histogram] {
      for (int i = 0; i < kPerThread; ++i) {
        histogram->Observe(static_cast<double>(i % 30));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(histogram->count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  // Each 30-value cycle lands 11 values (0..10) in bucket 0, 10
  // (11..20) in bucket 1, and 9 (21..29) in the overflow bucket.
  const std::uint64_t cycles =
      static_cast<std::uint64_t>(kThreads) * kPerThread / 30;
  EXPECT_EQ(histogram->bucket_count(0), cycles * 11);
  EXPECT_EQ(histogram->bucket_count(1), cycles * 10);
  EXPECT_EQ(histogram->bucket_count(2), cycles * 9);
}

TEST(SpanTest, NestedSpansBuildSlashJoinedPaths) {
  MetricsRegistry registry;
  EXPECT_EQ(Span::CurrentPath(), "");
  {
    Span outer(&registry, "pipeline");
    EXPECT_EQ(outer.path(), "pipeline");
    EXPECT_EQ(Span::CurrentPath(), "pipeline");
    {
      Span inner(&registry, "reproduce");
      EXPECT_EQ(inner.path(), "pipeline/reproduce");
      EXPECT_EQ(Span::CurrentPath(), "pipeline/reproduce");
      {
        Span leaf(&registry, "em_fit");
        EXPECT_EQ(leaf.path(), "pipeline/reproduce/em_fit");
      }
    }
    // A sibling after the nested block attaches to the outer span.
    Span sibling(&registry, "detect");
    EXPECT_EQ(sibling.path(), "pipeline/detect");
  }
  EXPECT_EQ(Span::CurrentPath(), "");
  EXPECT_EQ(registry.timer("pipeline/reproduce/em_fit")->count(), 1u);
  EXPECT_EQ(registry.timer("pipeline/reproduce")->count(), 1u);
  EXPECT_EQ(registry.timer("pipeline/detect")->count(), 1u);
  // The outer span records only at destruction, which happened above.
  EXPECT_EQ(registry.timer("pipeline")->count(), 1u);
}

TEST(SpanTest, NullRegistryIsInert) {
  {
    Span span(nullptr, "ghost");
    EXPECT_EQ(Span::CurrentPath(), "");
    ScopedTimer timer(nullptr);
    ScopedTimer named(nullptr, "ghost");
  }
  // Null-safe helpers must be no-ops, not crashes.
  Increment(GetCounter(nullptr, "x"));
  Set(GetGauge(nullptr, "x"), 1.0);
  Add(GetGauge(nullptr, "x"), 1.0);
  Observe(GetHistogram(nullptr, "x", {1.0}), 0.5);
}

TEST(ScopedTimerTest, RecordsOneObservationPerScope) {
  MetricsRegistry registry;
  Timer* timer = registry.timer("work");
  for (int i = 0; i < 3; ++i) {
    ScopedTimer scope(timer);
  }
  EXPECT_EQ(timer->count(), 3u);
  EXPECT_GE(timer->seconds(), 0.0);
}

TEST(ExporterTest, JsonIsDeterministicAcrossInsertionOrder) {
  MetricsRegistry forward;
  forward.counter("a.one")->Increment(1);
  forward.counter("b.two")->Increment(2);
  forward.gauge("g")->Set(0.5);
  MetricsRegistry backward;
  backward.gauge("g")->Set(0.5);
  backward.counter("b.two")->Increment(2);
  backward.counter("a.one")->Increment(1);
  EXPECT_EQ(forward.ToJson(), backward.ToJson());
  EXPECT_EQ(forward.CountersToJson(), backward.CountersToJson());
  EXPECT_EQ(forward.CountersToJson(), "{\"a.one\":1,\"b.two\":2}");
  EXPECT_NE(forward.ToJson().find("\"counters\":"), std::string::npos);
  EXPECT_NE(forward.ToJson().find("\"gauges\":"), std::string::npos);
  EXPECT_NE(forward.ToJson().find("\"timers\":"), std::string::npos);
  EXPECT_NE(forward.ToJson().find("\"histograms\":"), std::string::npos);
}

TEST(RuntimeMetricsTest, FoldsStageStatsIntoRegistry) {
  runtime::ThreadPool pool(2);
  auto noop = [](std::size_t, std::size_t, std::size_t) {
    return Status::OK();
  };
  ASSERT_TRUE(pool.ParallelFor(0, 100, 10, noop, "stage-a").ok());
  MetricsRegistry registry;
  FoldRuntimeStats(pool.stats(), pool.num_threads(), &registry);
  EXPECT_EQ(registry.counter_value("runtime.stage-a.calls"), 1u);
  EXPECT_EQ(registry.counter_value("runtime.stage-a.tasks"), 10u);
  EXPECT_EQ(registry.counter_value("runtime.stage-a.items"), 100u);
  EXPECT_DOUBLE_EQ(registry.gauge("runtime.threads")->value(), 2.0);
}

// The ExecContext is the only way execution resources reach a fit
// after the removal of the per-options pool fields: the context's pool
// sees the EM stages, and an empty context runs inline.
TEST(ExecContextTest, ContextPoolDrivesTheFit) {
  auto world = synth::World::Create(synth::MakeTinyWorldConfig(6, 99));
  ASSERT_TRUE(world.ok());
  synth::ClaimGenerator generator(&*world);
  auto data = generator.Generate();
  ASSERT_TRUE(data.ok());

  runtime::ThreadPool context_pool(2);
  ExecContext context;
  context.pool = &context_pool;
  auto fitted = medmodel::MedicationModel::Fit(
      data->corpus.month(0), medmodel::MedicationModelOptions{}, nullptr,
      context);
  ASSERT_TRUE(fitted.ok()) << fitted.status();
  EXPECT_FALSE(context_pool.stats().stages.empty());

  // An empty context fits inline and produces the identical model.
  auto inline_fit = medmodel::MedicationModel::Fit(
      data->corpus.month(0), medmodel::MedicationModelOptions{}, nullptr,
      ExecContext{});
  ASSERT_TRUE(inline_fit.ok()) << inline_fit.status();
  EXPECT_EQ((*fitted)->fit_stats().final_log_likelihood,
            (*inline_fit)->fit_stats().final_log_likelihood);
}

// The tentpole acceptance test: every counter the pipeline emits is
// bit-identical at 1 and 4 threads (timers and gauges are excluded from
// the contract and from CountersToJson()).
TEST(ObsDeterminismTest, PipelineCountersIdenticalAcrossThreadCounts) {
  auto world = synth::World::Create(synth::MakeTinyWorldConfig(24, 5));
  ASSERT_TRUE(world.ok());
  synth::ClaimGenerator generator(&*world);
  auto data = generator.Generate();
  ASSERT_TRUE(data.ok());

  auto counters_with_threads = [&](int threads) {
    runtime::ThreadPool pool(threads);
    MetricsRegistry registry;
    trend::PipelineConfig options;
    options.reproducer.filter_options.min_disease_count = 1;
    options.reproducer.filter_options.min_medicine_count = 1;
    options.analyzer.detector.seasonal = false;  // 24-month window.
    options.analyzer.detector.fit.optimizer.max_evaluations = 120;
    ExecContext context;
    context.pool = &pool;
    context.metrics = &registry;
    auto result = trend::RunPipeline(data->corpus, options, context);
    EXPECT_TRUE(result.ok()) << result.status();
    return registry.CountersToJson();
  };
  const std::string one = counters_with_threads(1);
  const std::string four = counters_with_threads(4);
  EXPECT_EQ(one, four);
  // The instrumentation actually fired: the EM and detector stages all
  // contributed counters.
  EXPECT_NE(one.find("\"em.fits\":"), std::string::npos);
  EXPECT_NE(one.find("\"em.iterations\":"), std::string::npos);
  EXPECT_NE(one.find("\"ssm.kalman_passes\":"), std::string::npos);
  EXPECT_NE(one.find("\"changepoint.aic_evaluations\":"),
            std::string::npos);
  EXPECT_NE(one.find("\"trend.series_analyzed\":"), std::string::npos);
  EXPECT_NE(one.find("\"reproduce.months_fitted\":"), std::string::npos);
}

// Spans cover the pipeline's serial skeleton: the root "pipeline" span
// nests "reproduce" and "detect", and each EM fit lands under the
// reproduce span.
TEST(ObsDeterminismTest, PipelineSpansNestUnderRoot) {
  auto world = synth::World::Create(synth::MakeTinyWorldConfig(6, 99));
  ASSERT_TRUE(world.ok());
  synth::ClaimGenerator generator(&*world);
  auto data = generator.Generate();
  ASSERT_TRUE(data.ok());

  MetricsRegistry registry;
  trend::PipelineConfig options;
  options.reproducer.filter_options.min_disease_count = 1;
  options.reproducer.filter_options.min_medicine_count = 1;
  options.analyzer.detector.seasonal = false;
  options.analyzer.detector.fit.optimizer.max_evaluations = 60;
  ExecContext context;
  context.metrics = &registry;
  auto result = trend::RunPipeline(data->corpus, options, context);
  ASSERT_TRUE(result.ok()) << result.status();

  EXPECT_EQ(registry.timer("pipeline")->count(), 1u);
  EXPECT_EQ(registry.timer("pipeline/reproduce")->count(), 1u);
  EXPECT_EQ(registry.timer("pipeline/detect")->count(), 1u);
  EXPECT_EQ(registry.timer("pipeline/reproduce/em_fit")->count(),
            registry.counter_value("em.fits"));
  EXPECT_GT(registry.timer("trend.series_fit")->count(), 0u);
}

// The claim store's counters join the determinism contract: a
// store-ingested pipeline run exports bit-identical counters at 1 and
// 4 threads (ingest is serial, so thread count cannot touch store.*,
// and the stamped fingerprints feed reproduce.* deterministically).
TEST(ObsDeterminismTest, StoreCountersIdenticalAcrossThreadCounts) {
  auto world = synth::World::Create(synth::MakeTinyWorldConfig(24, 5));
  ASSERT_TRUE(world.ok());
  synth::ClaimGenerator generator(&*world);
  auto data = generator.Generate();
  ASSERT_TRUE(data.ok());

  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "obs_store_determinism";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  {
    auto seeder = store::ClaimStore::Open(dir.string());
    ASSERT_TRUE(seeder.ok());
    ASSERT_TRUE(store::ImportCorpus(data->corpus, *seeder).ok());
  }

  auto counters_with_threads = [&](int threads) {
    runtime::ThreadPool pool(threads);
    MetricsRegistry registry;
    trend::PipelineConfig options;
    options.reproducer.filter_options.min_disease_count = 1;
    options.reproducer.filter_options.min_medicine_count = 1;
    options.analyzer.detector.seasonal = false;  // 24-month window.
    options.analyzer.detector.fit.optimizer.max_evaluations = 120;
    options.store.directory = dir.string();
    ExecContext context;
    context.pool = &pool;
    context.metrics = &registry;
    auto result = trend::RunPipelineFromStore(options, context);
    EXPECT_TRUE(result.ok()) << result.status();
    return registry.CountersToJson();
  };
  const std::string one = counters_with_threads(1);
  const std::string four = counters_with_threads(4);
  EXPECT_EQ(one, four);
  EXPECT_NE(one.find("\"store.segments_read\":"), std::string::npos);
  EXPECT_NE(one.find("\"store.bytes_read\":"), std::string::npos);
  EXPECT_NE(one.find("\"store.records_read\":"), std::string::npos);
  EXPECT_NE(one.find("\"store.read_errors\":0"), std::string::npos);
}

}  // namespace
}  // namespace mic::obs
