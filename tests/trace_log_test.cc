#include "obs/trace_log.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/exec_context.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/thread_pool.h"
#include "synth/generator.h"
#include "synth/scenario.h"
#include "trend/pipeline.h"

namespace mic::obs {
namespace {

TEST(TraceLogTest, RecordsBeginEndPairsInOrder) {
  TraceLog trace;
  trace.BeginEvent("outer");
  trace.BeginEvent("outer/inner");
  trace.EndEvent("outer/inner");
  trace.EndEvent("outer");

  const std::vector<ThreadTrace> snapshot = trace.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].tid, 0u);
  EXPECT_EQ(snapshot[0].dropped, 0u);
  ASSERT_EQ(snapshot[0].events.size(), 4u);
  EXPECT_EQ(snapshot[0].events[0].name, "outer");
  EXPECT_EQ(snapshot[0].events[0].phase, TraceEvent::Phase::kBegin);
  EXPECT_EQ(snapshot[0].events[1].name, "outer/inner");
  EXPECT_EQ(snapshot[0].events[3].phase, TraceEvent::Phase::kEnd);
  // Timestamps never run backwards within one thread's timeline.
  for (std::size_t i = 1; i < snapshot[0].events.size(); ++i) {
    EXPECT_GE(snapshot[0].events[i].ts_ns,
              snapshot[0].events[i - 1].ts_ns);
  }
  EXPECT_EQ(trace.event_count(), 4u);
  EXPECT_EQ(trace.dropped_count(), 0u);
}

// Each thread owns its ring: concurrent writers never interleave into
// one another's timelines, and each per-thread view preserves the
// thread's own record order.
TEST(TraceLogTest, PerThreadTimelinesStaySeparatedAndOrdered) {
  constexpr int kThreads = 4;
  constexpr int kEventsPerThread = 50;
  TraceLog trace;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&trace, t] {
      const std::string name = "worker-" + std::to_string(t);
      for (int i = 0; i < kEventsPerThread; ++i) {
        trace.BeginEvent(name, static_cast<std::uint64_t>(i));
        trace.EndEvent(name, static_cast<std::uint64_t>(i));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const std::vector<ThreadTrace> snapshot = trace.Snapshot();
  ASSERT_EQ(snapshot.size(), static_cast<std::size_t>(kThreads));
  std::set<std::uint32_t> tids;
  std::set<std::string> names;
  for (const ThreadTrace& thread : snapshot) {
    tids.insert(thread.tid);
    ASSERT_EQ(thread.events.size(),
              static_cast<std::size_t>(2 * kEventsPerThread));
    // One writer per ring: every event carries the same name, chunk
    // indices advance 0,0,1,1,..., and timestamps are monotone.
    names.insert(thread.events[0].name);
    for (std::size_t i = 0; i < thread.events.size(); ++i) {
      EXPECT_EQ(thread.events[i].name, thread.events[0].name);
      EXPECT_EQ(thread.events[i].chunk, static_cast<std::uint64_t>(i / 2));
      EXPECT_EQ(thread.events[i].phase, (i % 2 == 0)
                                            ? TraceEvent::Phase::kBegin
                                            : TraceEvent::Phase::kEnd);
      if (i > 0) {
        EXPECT_GE(thread.events[i].ts_ns, thread.events[i - 1].ts_ns);
      }
    }
  }
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
  EXPECT_EQ(names.size(), static_cast<std::size_t>(kThreads));
}

TEST(TraceLogTest, RingWrapDropsOldestAndCountsDrops) {
  TraceLog trace(/*capacity_per_thread=*/8);
  for (int i = 0; i < 20; ++i) {
    trace.BeginEvent("e" + std::to_string(i));
  }
  EXPECT_EQ(trace.event_count(), 8u);
  EXPECT_EQ(trace.dropped_count(), 12u);

  const std::vector<ThreadTrace> snapshot = trace.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].dropped, 12u);
  ASSERT_EQ(snapshot[0].events.size(), 8u);
  // The survivors are the newest 8, still in record order.
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(snapshot[0].events[i].name, "e" + std::to_string(12 + i));
  }
  // The drop total is surfaced in the export, not silently eaten.
  EXPECT_NE(trace.ToChromeTraceJson().find("\"droppedEvents\":12"),
            std::string::npos);
}

// TraceChunks captures the dispatching thread's span path and replays
// it around every chunk, so chunk events (and spans opened inside the
// chunk) nest under the stage that issued the ParallelFor even though
// they execute on pool workers with empty span stacks.
TEST(TraceLogTest, ParallelForChunksInheritTheCallersSpanPath) {
  TraceLog trace;
  runtime::ThreadPool pool(4);
  ExecContext context{&pool, nullptr, &trace};

  {
    Span outer(context, "outer");
    Status status = pool.ParallelFor(
        0, 64, /*chunk=*/8,
        TraceChunks(&trace, "stage",
                    [&](std::size_t, std::size_t, std::size_t) {
                      Span inner(context, "inner");
                      return Status::OK();
                    }));
    ASSERT_TRUE(status.ok());
  }

  std::set<std::uint64_t> chunks_seen;
  int inner_begins = 0;
  for (const ThreadTrace& thread : trace.Snapshot()) {
    for (const TraceEvent& event : thread.events) {
      if (event.chunk != TraceEvent::kNoChunk) {
        EXPECT_EQ(event.name, "outer/stage");
        if (event.phase == TraceEvent::Phase::kBegin) {
          chunks_seen.insert(event.chunk);
        }
      } else if (event.name != "outer") {
        EXPECT_EQ(event.name, "outer/stage/inner");
        if (event.phase == TraceEvent::Phase::kBegin) ++inner_begins;
      }
    }
  }
  EXPECT_EQ(chunks_seen.size(), 8u);  // 64 items / chunk 8.
  EXPECT_EQ(*chunks_seen.rbegin(), 7u);
  EXPECT_EQ(inner_begins, 8);
}

// Null trace: the wrapper must hand back the function unchanged rather
// than paying for a capture.
TEST(TraceLogTest, TraceChunksIsPassThroughWithoutATrace) {
  bool ran = false;
  auto fn = TraceChunks(nullptr, "stage",
                        [&ran](std::size_t, std::size_t, std::size_t) {
                          ran = true;
                          return Status::OK();
                        });
  ASSERT_TRUE(fn(0, 1, 0).ok());
  EXPECT_TRUE(ran);
}

// Cheap structural validation of the Chrome-trace export (the shell
// smoke test parses it with a real JSON parser): balanced braces
// outside strings, the required top-level fields, paired B/E counts.
void ExpectChromeTraceWellFormed(const std::string& json) {
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"droppedEvents\":"), std::string::npos);
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : json) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (c == '\\') {
      escaped = true;
    } else if (c == '"') {
      in_string = !in_string;
    } else if (!in_string && (c == '{' || c == '[')) {
      ++depth;
    } else if (!in_string && (c == '}' || c == ']')) {
      --depth;
      ASSERT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

// The acceptance scenario: a traced 4-thread pipeline run produces a
// well-formed timeline that spans more than one thread id with chunk
// events nested under their owning span path, while the deterministic
// metrics counters stay bit-identical to the 1-thread traced run.
TEST(TraceLogPipelineTest, FourThreadTimelineIsWellFormedAndCountersMatch) {
  auto world = synth::World::Create(synth::MakeTinyWorldConfig(24, 5));
  ASSERT_TRUE(world.ok());
  synth::ClaimGenerator generator(&*world);
  auto data = generator.Generate();
  ASSERT_TRUE(data.ok());

  trend::PipelineConfig options;
  options.reproducer.filter_options.min_disease_count = 1;
  options.reproducer.filter_options.min_medicine_count = 1;
  options.reproducer.min_series_total = 10.0;
  options.analyzer.detector.seasonal = false;  // 24-month window.
  options.analyzer.detector.fit.optimizer.max_evaluations = 150;

  auto run = [&](int threads, MetricsRegistry* metrics, TraceLog* trace) {
    runtime::ThreadPool pool(threads);
    ExecContext context{&pool, metrics, trace};
    auto result = trend::RunPipeline(data->corpus, options, context);
    ASSERT_TRUE(result.ok());
  };

  MetricsRegistry serial_metrics;
  TraceLog serial_trace;
  run(1, &serial_metrics, &serial_trace);
  MetricsRegistry parallel_metrics;
  TraceLog parallel_trace;
  run(4, &parallel_metrics, &parallel_trace);

  // Counters are part of the determinism contract; tracing must not
  // perturb them and thread count must not either.
  EXPECT_EQ(serial_metrics.CountersToJson(),
            parallel_metrics.CountersToJson());

  ExpectChromeTraceWellFormed(serial_trace.ToChromeTraceJson());
  ExpectChromeTraceWellFormed(parallel_trace.ToChromeTraceJson());

  const std::vector<ThreadTrace> threads = parallel_trace.Snapshot();
  EXPECT_GT(threads.size(), 1u);  // Workers recorded chunk events.

  // Every chunk event sits under the pipeline's span path, and each
  // thread's begin/end events pair up.
  std::set<std::string> chunk_paths;
  for (const ThreadTrace& thread : threads) {
    std::map<std::string, int> open;
    for (const TraceEvent& event : thread.events) {
      if (event.chunk != TraceEvent::kNoChunk) {
        EXPECT_EQ(event.name.rfind("pipeline/", 0), 0u) << event.name;
        chunk_paths.insert(event.name);
      }
      open[event.name] +=
          event.phase == TraceEvent::Phase::kBegin ? 1 : -1;
      EXPECT_GE(open[event.name], 0) << event.name;
    }
    for (const auto& [name, count] : open) {
      EXPECT_EQ(count, 0) << name << " left unbalanced";
    }
  }
  EXPECT_TRUE(chunk_paths.count("pipeline/reproduce/em_fit/em-estep"))
      << "EM chunk events missing";
  EXPECT_TRUE(chunk_paths.count("pipeline/detect/trend-sweep"))
      << "candidate sweep chunk events missing";
}

}  // namespace
}  // namespace mic::obs
