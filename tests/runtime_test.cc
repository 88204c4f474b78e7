#include "runtime/thread_pool.h"

#include <atomic>
#include <set>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "medmodel/medication_model.h"
#include "synth/generator.h"
#include "synth/scenario.h"
#include "trend/pipeline.h"

namespace mic::runtime {
namespace {

TEST(ThreadPoolTest, CoversFullRangeExactlyOnce) {
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    constexpr std::size_t kItems = 1000;
    std::vector<std::atomic<int>> visits(kItems);
    Status status = pool.ParallelFor(
        0, kItems, 7,
        [&visits](std::size_t begin, std::size_t end, std::size_t) {
          for (std::size_t i = begin; i < end; ++i) {
            visits[i].fetch_add(1, std::memory_order_relaxed);
          }
          return Status::OK();
        });
    ASSERT_TRUE(status.ok()) << status;
    for (std::size_t i = 0; i < kItems; ++i) {
      EXPECT_EQ(visits[i].load(), 1) << "index " << i;
    }
  }
}

TEST(ThreadPoolTest, ChunkDecompositionIsDeterministic) {
  // Chunk boundaries depend only on (range, chunk), never on threads.
  for (int threads : {1, 3, 8}) {
    ThreadPool pool(threads);
    std::mutex mu;
    std::set<std::tuple<std::size_t, std::size_t, std::size_t>> chunks;
    ASSERT_TRUE(pool.ParallelFor(
                        5, 47, 10,
                        [&](std::size_t begin, std::size_t end,
                            std::size_t index) {
                          std::lock_guard<std::mutex> lock(mu);
                          chunks.insert({begin, end, index});
                          return Status::OK();
                        })
                    .ok());
    const std::set<std::tuple<std::size_t, std::size_t, std::size_t>>
        expected = {{5, 15, 0}, {15, 25, 1}, {25, 35, 2},
                    {35, 45, 3}, {45, 47, 4}};
    EXPECT_EQ(chunks, expected) << "threads " << threads;
  }
}

TEST(ThreadPoolTest, FirstErrorPropagatesAndCancels) {
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    std::atomic<int> executed{0};
    Status status = pool.ParallelFor(
        0, 1000, 1,
        [&executed](std::size_t, std::size_t, std::size_t index) {
          executed.fetch_add(1, std::memory_order_relaxed);
          if (index == 3) {
            return Status::NumericError("chunk 3 diverged");
          }
          return Status::OK();
        });
    EXPECT_EQ(status.code(), StatusCode::kNumericError);
    EXPECT_EQ(status.message(), "chunk 3 diverged");
    // Cancellation skips (almost all of) the remaining chunks; with a
    // few threads in flight a handful may still start.
    EXPECT_LT(executed.load(), 1000) << "threads " << threads;
  }
}

TEST(ThreadPoolTest, ExceptionsSurfaceAsInternalStatus) {
  ThreadPool pool(2);
  Status status = pool.ParallelFor(
      0, 8, 1, [](std::size_t, std::size_t, std::size_t index) -> Status {
        if (index == 1) throw std::runtime_error("task blew up");
        return Status::OK();
      });
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("task blew up"), std::string::npos);
}

TEST(ThreadPoolTest, RejectsNestedUse) {
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    Status inner_status = Status::OK();
    std::mutex mu;
    Status status = pool.ParallelFor(
        0, 4, 1, [&](std::size_t, std::size_t, std::size_t) {
          Status nested = pool.ParallelFor(
              0, 2, 1, [](std::size_t, std::size_t, std::size_t) {
                return Status::OK();
              });
          std::lock_guard<std::mutex> lock(mu);
          if (inner_status.ok()) inner_status = nested;
          return Status::OK();
        });
    EXPECT_TRUE(status.ok()) << status;
    EXPECT_EQ(inner_status.code(), StatusCode::kFailedPrecondition)
        << "threads " << threads;
  }
}

TEST(ThreadPoolTest, NullPoolRunsInlineWithSameChunks) {
  std::vector<std::size_t> order;
  Status status = ParallelFor(
      nullptr, 0, 10, 4,
      [&order](std::size_t begin, std::size_t end, std::size_t index) {
        EXPECT_EQ(begin, index * 4);
        EXPECT_EQ(end, std::min<std::size_t>(10, begin + 4));
        order.push_back(index);
        return Status::OK();
      });
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(ThreadPoolTest, ValidatesArguments) {
  ThreadPool pool(1);
  auto noop = [](std::size_t, std::size_t, std::size_t) {
    return Status::OK();
  };
  EXPECT_EQ(pool.ParallelFor(0, 4, 0, noop).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(pool.ParallelFor(4, 0, 1, noop).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(pool.ParallelFor(4, 4, 1, noop).ok());  // empty range
}

TEST(ThreadPoolTest, RecordsStageStats) {
  ThreadPool pool(2);
  auto noop = [](std::size_t, std::size_t, std::size_t) {
    return Status::OK();
  };
  ASSERT_TRUE(pool.ParallelFor(0, 100, 10, noop, "stage-a").ok());
  ASSERT_TRUE(pool.ParallelFor(0, 50, 10, noop, "stage-a").ok());
  ASSERT_TRUE(pool.ParallelFor(0, 30, 10, noop, "stage-b").ok());
  const RuntimeStats stats = pool.stats();
  ASSERT_EQ(stats.stages.size(), 2u);
  EXPECT_EQ(stats.stages[0].stage, "stage-a");
  EXPECT_EQ(stats.stages[0].calls, 2u);
  EXPECT_EQ(stats.stages[0].tasks, 15u);
  EXPECT_EQ(stats.stages[0].items, 150u);
  EXPECT_EQ(stats.stages[1].stage, "stage-b");
  EXPECT_EQ(stats.stages[1].tasks, 3u);
  const StageStats totals = stats.Totals();
  EXPECT_EQ(totals.tasks, 18u);
  EXPECT_NE(stats.ToJson().find("\"stage\":\"stage-a\""),
            std::string::npos);
  pool.ResetStats();
  EXPECT_TRUE(pool.stats().stages.empty());
}

// The tentpole determinism contract, end to end: EM log-likelihood and
// detected changepoint months are identical at 1 and 8 threads.
TEST(RuntimeDeterminismTest, EmFitBitIdenticalAcrossThreadCounts) {
  auto world = synth::World::Create(synth::MakeTinyWorldConfig(6, 99));
  ASSERT_TRUE(world.ok());
  synth::ClaimGenerator generator(&*world);
  auto data = generator.Generate();
  ASSERT_TRUE(data.ok());

  auto fit_with_threads = [&](int threads) {
    ThreadPool pool(threads);
    ExecContext context;
    context.pool = &pool;
    auto fitted = medmodel::MedicationModel::Fit(
        data->corpus.month(0), medmodel::MedicationModelOptions{},
        /*prior=*/nullptr, context);
    EXPECT_TRUE(fitted.ok()) << fitted.status();
    return std::move(fitted).value();
  };
  auto one = fit_with_threads(1);
  auto eight = fit_with_threads(8);
  EXPECT_EQ(one->fit_stats().final_log_likelihood,
            eight->fit_stats().final_log_likelihood);
  EXPECT_EQ(one->fit_stats().log_likelihood_trace,
            eight->fit_stats().log_likelihood_trace);
}

TEST(RuntimeDeterminismTest, PipelineChangepointsIdenticalAcrossThreads) {
  auto world = synth::World::Create(synth::MakeTinyWorldConfig(24, 5));
  ASSERT_TRUE(world.ok());
  synth::ClaimGenerator generator(&*world);
  auto data = generator.Generate();
  ASSERT_TRUE(data.ok());

  auto run_with_threads = [&](int threads) {
    ThreadPool pool(threads);
    ExecContext context;
    context.pool = &pool;
    trend::PipelineConfig config;
    config.reproducer.filter_options.min_disease_count = 1;
    config.reproducer.filter_options.min_medicine_count = 1;
    config.analyzer.detector.seasonal = false;  // 24-month window.
    config.analyzer.detector.fit.optimizer.max_evaluations = 120;
    auto result = trend::RunPipeline(data->corpus, config, context);
    EXPECT_TRUE(result.ok()) << result.status();
    return std::move(result).value();
  };
  const trend::PipelineResult one = run_with_threads(1);
  const trend::PipelineResult eight = run_with_threads(8);

  auto expect_identical = [](const std::vector<trend::SeriesAnalysis>& a,
                             const std::vector<trend::SeriesAnalysis>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].has_change, b[i].has_change) << i;
      EXPECT_EQ(a[i].change_point, b[i].change_point) << i;
      EXPECT_EQ(a[i].aic, b[i].aic) << i;           // bitwise
      EXPECT_EQ(a[i].lambda, b[i].lambda) << i;     // bitwise
      EXPECT_EQ(a[i].scale, b[i].scale) << i;
    }
  };
  expect_identical(one.report.diseases, eight.report.diseases);
  expect_identical(one.report.medicines, eight.report.medicines);
  expect_identical(one.report.prescriptions, eight.report.prescriptions);
}

}  // namespace
}  // namespace mic::runtime
