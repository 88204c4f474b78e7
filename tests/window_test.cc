#include "obs/window.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/openmetrics.h"

namespace mic::obs {
namespace {

// 1-second slots, 5-slot ring, 2 s / 5 s lookbacks: small enough to
// drive every transition by hand with the injected clock.
WindowOptions TinyOptions() {
  WindowOptions options;
  options.slot_width_ns = 1000ull * 1000ull * 1000ull;
  options.num_slots = 5;
  options.lookback_seconds = {2, 5};
  return options;
}

constexpr std::uint64_t kSecond = 1000ull * 1000ull * 1000ull;

TEST(WindowTest, AggregatesCountsErrorsAndQuantilesDeterministically) {
  std::atomic<std::uint64_t> now{0};
  WindowRegistry windows(TinyOptions(),
                         [&now] { return now.load(); });
  WindowedChannel* channel = windows.channel("serve.health");

  // 90 fast (<= 0.001 s bucket), 10 slow (<= 0.05 s bucket), 5 errors.
  for (int i = 0; i < 90; ++i) channel->Record(0.0009);
  for (int i = 0; i < 10; ++i) channel->Record(0.04, /*error=*/i < 5);

  const WindowStats stats = channel->Aggregate(2 * kSecond);
  EXPECT_EQ(stats.count, 100u);
  EXPECT_EQ(stats.errors, 5u);
  EXPECT_DOUBLE_EQ(stats.error_rate, 0.05);
  EXPECT_DOUBLE_EQ(stats.rps, 50.0);  // 100 requests / 2 s lookback
  EXPECT_DOUBLE_EQ(stats.p50, 0.001);
  EXPECT_DOUBLE_EQ(stats.p95, 0.05);
  EXPECT_DOUBLE_EQ(stats.p99, 0.05);
  EXPECT_DOUBLE_EQ(stats.max, 0.05);
  EXPECT_NEAR(stats.mean, (90 * 0.0009 + 10 * 0.04) / 100.0, 1e-12);
}

TEST(WindowTest, OldSlotsAgeOutOfTheShorterLookbacks) {
  std::atomic<std::uint64_t> now{kSecond / 2};  // epoch 0
  WindowRegistry windows(TinyOptions(),
                         [&now] { return now.load(); });
  WindowedChannel* channel = windows.channel("serve.series");
  channel->Record(0.002);

  now.store(3 * kSecond + kSecond / 2);  // epoch 3
  EXPECT_EQ(channel->Aggregate(2 * kSecond).count, 0u)
      << "epoch 0 is outside the trailing 2 s once the clock reaches "
         "epoch 3";
  EXPECT_EQ(channel->Aggregate(5 * kSecond).count, 1u);
}

TEST(WindowTest, RingReusesSlotsPastTheHorizon) {
  std::atomic<std::uint64_t> now{0};  // epoch 0
  WindowRegistry windows(TinyOptions(),
                         [&now] { return now.load(); });
  WindowedChannel* channel = windows.channel("serve.top_changes");
  channel->Record(0.002);
  channel->Record(0.002);

  // Epoch 5 maps to the same slot index as epoch 0 (5 % 5): the write
  // must turn the slot over and the stale epoch-0 samples must vanish
  // from every lookback.
  now.store(5 * kSecond + 1);
  channel->Record(0.004);
  const WindowStats stats = channel->Aggregate(5 * kSecond);
  EXPECT_EQ(stats.count, 1u);
  EXPECT_DOUBLE_EQ(stats.p50, 0.005);
}

TEST(WindowTest, TotalsSurviveSlotTurnoverAndAFullRingWrap) {
  std::atomic<std::uint64_t> now{0};  // epoch 0
  WindowRegistry windows(TinyOptions(),
                         [&now] { return now.load(); });
  WindowedChannel* channel = windows.channel("serve.series");
  channel->Record(0.002);
  channel->Record(0.25, /*error=*/true);

  // Epoch 5 reuses epoch 0's slot: the turnover clears the window but
  // not the totals.
  now.store(5 * kSecond);
  channel->Record(0.5);
  EXPECT_EQ(channel->Aggregate(5 * kSecond).count, 1u);

  // Past the whole horizon every slot is stale; the totals still hold
  // all three samples.
  now.store(20 * kSecond);
  EXPECT_EQ(channel->Aggregate(5 * kSecond).count, 0u);
  const ChannelTotals totals = channel->Totals();
  EXPECT_EQ(totals.requests, 3u);
  EXPECT_EQ(totals.errors, 1u);
  EXPECT_EQ(totals.nanos, 752000000u);
  EXPECT_DOUBLE_EQ(totals.seconds(), 0.752);
}

TEST(WindowTest, ToJsonIsDeterministicForIdenticalHistories) {
  auto drive = [](WindowRegistry& windows,
                  std::atomic<std::uint64_t>& now) {
    windows.channel("serve.health")->Record(0.0009);
    windows.channel("serve.report_csv")->Record(0.3, /*error=*/true);
    now.store(kSecond);
    windows.channel("serve.health")->Record(0.002);
  };
  std::atomic<std::uint64_t> now_a{0};
  std::atomic<std::uint64_t> now_b{0};
  WindowRegistry a(TinyOptions(), [&now_a] { return now_a.load(); });
  WindowRegistry b(TinyOptions(), [&now_b] { return now_b.load(); });
  drive(a, now_a);
  drive(b, now_b);

  const std::string json = a.ToJson();
  EXPECT_EQ(json, b.ToJson());
  EXPECT_NE(json.find("\"windows\":{\"2s\":{"), std::string::npos);
  EXPECT_NE(json.find("\"5s\":{"), std::string::npos);
  EXPECT_NE(json.find("\"serve.health\":{\"count\":2"),
            std::string::npos);
  EXPECT_NE(json.find("\"serve.report_csv\":{\"count\":1,\"errors\":1"),
            std::string::npos);
  EXPECT_NE(json.find("\"totals\":{\"serve.health\":{\"requests\":2,"
                      "\"errors\":0,\"seconds\":"),
            std::string::npos);
  EXPECT_NE(json.find("\"serve.report_csv\":{\"requests\":1,"
                      "\"errors\":1,\"seconds\":"),
            std::string::npos);
}

// All slot state is atomic: concurrent recorders under a fixed clock
// (no turnover races) must neither lose counts nor trip TSan.
TEST(WindowTest, ConcurrentRecordsAreAllCounted) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::atomic<std::uint64_t> now{0};
  WindowRegistry windows(TinyOptions(),
                         [&now] { return now.load(); });
  WindowedChannel* channel = windows.channel("serve.health");
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([channel] {
      for (int i = 0; i < kPerThread; ++i) {
        channel->Record(0.0009, /*error=*/i % 100 == 0);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const WindowStats stats = channel->Aggregate(2 * kSecond);
  EXPECT_EQ(stats.count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(stats.errors, static_cast<std::uint64_t>(kThreads) * 10);
}

// Every Record() reaches the totals, even while the clock advances on
// each read so that recorders keep racing each other's slot turnovers
// (and may lose samples from the windows).
TEST(WindowTest, ConcurrentTotalsAreExactUnderSlotTurnover) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::atomic<std::uint64_t> now{0};
  WindowRegistry windows(TinyOptions(), [&now] {
    return now.fetch_add(kSecond / 8, std::memory_order_relaxed);
  });
  WindowedChannel* channel = windows.channel("serve.health");
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([channel] {
      for (int i = 0; i < kPerThread; ++i) {
        channel->Record(0.001, /*error=*/i % 100 == 0);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const ChannelTotals totals = channel->Totals();
  EXPECT_EQ(totals.requests,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(totals.errors, static_cast<std::uint64_t>(kThreads) * 20);
  EXPECT_EQ(totals.nanos,
            static_cast<std::uint64_t>(kThreads) * kPerThread * 1000000);
}

TEST(OpenMetricsTest, SanitizesNames) {
  EXPECT_EQ(OpenMetricsName("pipeline/detect/trend-sweep"),
            "mictrend_pipeline_detect_trend_sweep");
  EXPECT_EQ(OpenMetricsName("cache.hits"), "mictrend_cache_hits");
}

TEST(OpenMetricsTest, RendersEveryMetricKindWithTypeAndHelp) {
  MetricsRegistry metrics;
  metrics.counter("serve.snapshots_published")->Increment(3);
  metrics.gauge("serve.queue_depth")->Set(2.0);
  Timer* timer = metrics.timer("pipeline");
  timer->Record(1000000);  // 1 ms
  Histogram* histogram =
      metrics.histogram("serve.frame_bytes", {1.0, 2.0});
  histogram->Observe(0.5);
  histogram->Observe(1.5);
  histogram->Observe(5.0);

  std::atomic<std::uint64_t> now{0};
  WindowRegistry windows(TinyOptions(),
                         [&now] { return now.load(); });
  windows.channel("serve.health")->Record(0.0009);

  const std::string text = RenderOpenMetrics(&metrics, &windows);
  EXPECT_NE(
      text.find("# TYPE mictrend_serve_snapshots_published counter\n"
                "mictrend_serve_snapshots_published_total 3\n"),
      std::string::npos);
  EXPECT_NE(text.find("# HELP mictrend_serve_snapshots_published "
                      "serve.snapshots_published\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE mictrend_serve_queue_depth gauge\n"
                      "mictrend_serve_queue_depth 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("mictrend_pipeline_calls_total 1\n"),
            std::string::npos);
  // Histogram buckets are cumulative and close with +Inf.
  EXPECT_NE(text.find("mictrend_serve_frame_bytes_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("mictrend_serve_frame_bytes_bucket{le=\"2\"} 2\n"),
            std::string::npos);
  EXPECT_NE(
      text.find("mictrend_serve_frame_bytes_bucket{le=\"+Inf\"} 3\n"),
      std::string::npos);
  EXPECT_NE(text.find("mictrend_serve_frame_bytes_count 3\n"),
            std::string::npos);
  // Channel totals are counter families labeled by channel alone.
  EXPECT_NE(text.find("# TYPE mictrend_channel_requests counter\n"
                      "mictrend_channel_requests_total{"
                      "channel=\"serve.health\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("mictrend_channel_errors_total{"
                      "channel=\"serve.health\"} 0\n"),
            std::string::npos);
  const std::string seconds_sample =
      "mictrend_channel_seconds_total{channel=\"serve.health\"} ";
  const std::size_t seconds_at = text.find(seconds_sample);
  ASSERT_NE(seconds_at, std::string::npos);
  EXPECT_DOUBLE_EQ(
      std::stod(text.substr(seconds_at + seconds_sample.size())), 0.0009);
  // Windowed families carry channel/window (and quantile) labels.
  EXPECT_NE(text.find("mictrend_window_requests{channel=\"serve.health\","
                      "window=\"2s\"} 1\n"),
            std::string::npos);
  EXPECT_NE(
      text.find("mictrend_window_latency_seconds{channel=\"serve.health\","
                "window=\"5s\",quantile=\"0.99\"} 0.001\n"),
      std::string::npos);
  // OpenMetrics terminator.
  EXPECT_EQ(text.rfind("# EOF\n"), text.size() - 6);
}

TEST(OpenMetricsTest, EscapesLabelValuesAndHelpText) {
  std::atomic<std::uint64_t> now{0};
  WindowRegistry windows(TinyOptions(),
                         [&now] { return now.load(); });
  windows.channel("bad\"channel\\name")->Record(0.0009);

  const std::string text = RenderOpenMetrics(nullptr, &windows);
  EXPECT_NE(
      text.find("{channel=\"bad\\\"channel\\\\name\",window=\"2s\"}"),
      std::string::npos);
}

}  // namespace
}  // namespace mic::obs
