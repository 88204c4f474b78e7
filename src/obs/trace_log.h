// Per-thread event trace buffer (mic::obs v2): a timeline view of a run,
// complementing the aggregate counters/timers in MetricsRegistry.
//
// Every participating thread owns a fixed-capacity ring of begin/end
// events stamped with steady-clock nanoseconds since the TraceLog's
// epoch. The hot path is entirely thread-local — a thread only ever
// writes its own ring, so recording takes no lock and performs no
// cross-thread synchronization; the log's mutex guards only first-use
// registration and export-time snapshots. On ring wrap the oldest
// events are overwritten and a per-thread drop counter advances, so a
// saturated trace degrades to "most recent window + explicit drop
// count" instead of silently truncating. The CLI builds every log at
// the default capacity, 65,536 events per thread, and no flag changes
// it: a long-running daemon's export holds its most recent requests,
// and the obs.trace.dropped gauge counts what the rings overwrote.
//
// Feeders:
//   - obs::Span / obs::ScopedTimer emit begin/end pairs when a TraceLog
//     travels in the ExecContext (see trace.h);
//   - TraceChunks() wraps a runtime::ThreadPool::ChunkFn so every
//     ParallelFor chunk emits events on its executing worker thread,
//     nested under the span path the *caller* held when it dispatched —
//     the propagation that makes EM sharding and per-series fits show
//     up on the timeline instead of vanishing into the pool.
//
// Export is Chrome-trace JSON (chrome://tracing, https://ui.perfetto.dev):
// one "B"/"E" pair per span/chunk plus thread-name metadata, with the
// total drop count surfaced as a top-level "droppedEvents" field.
//
// Determinism: the *set* of event names and the per-name event counts
// are pure functions of the input (spans and chunk decompositions are),
// but timestamps, thread assignment, and drop counts are wall-clock and
// scheduling artifacts. Nothing in this file feeds the deterministic
// counters section of MetricsRegistry.
//
// Reading a snapshot is safe once the producing threads have quiesced
// (ParallelFor has returned / stages have joined) — the same contract
// the metrics registry documents.

#ifndef MICTREND_OBS_TRACE_LOG_H_
#define MICTREND_OBS_TRACE_LOG_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "runtime/thread_pool.h"

namespace mic::obs {

/// One begin or end mark on a thread's timeline.
struct TraceEvent {
  enum class Phase : std::uint8_t { kBegin, kEnd };

  Phase phase = Phase::kBegin;
  /// Nanoseconds since the owning TraceLog's epoch (steady clock).
  std::uint64_t ts_ns = 0;
  /// Full '/'-joined span path ("pipeline/reproduce/em_fit"). Carried
  /// on both phases so tests can pair them without a stack replay.
  std::string name;
  /// Chunk index for ParallelFor chunk events, kNoChunk otherwise.
  std::uint64_t chunk = kNoChunk;

  static constexpr std::uint64_t kNoChunk = ~std::uint64_t{0};
};

/// Export-time view of one thread's ring: the surviving events in
/// record order plus how many older ones the ring dropped.
struct ThreadTrace {
  /// Dense trace-local thread id (registration order; the thread that
  /// records first — normally the main thread — gets 0).
  std::uint32_t tid = 0;
  std::uint64_t dropped = 0;
  std::vector<TraceEvent> events;
};

class TraceLog {
 public:
  /// `capacity_per_thread` bounds each thread's ring; the default keeps
  /// a full pipeline run on the paper-scale world with room to spare.
  explicit TraceLog(std::size_t capacity_per_thread = 1 << 16);

  TraceLog(const TraceLog&) = delete;
  TraceLog& operator=(const TraceLog&) = delete;

  /// Records a begin/end mark on the calling thread's ring. Lock-free
  /// after the thread's first event (which registers the ring).
  void BeginEvent(std::string_view name,
                  std::uint64_t chunk = TraceEvent::kNoChunk);
  void EndEvent(std::string_view name,
                std::uint64_t chunk = TraceEvent::kNoChunk);

  /// Nanoseconds since this log's epoch, on the steady clock every
  /// event is stamped with.
  std::uint64_t NowNs() const;

  std::size_t capacity_per_thread() const { return capacity_; }

  /// Snapshot of every registered thread's ring, tid-ascending. Call
  /// only after the producing threads have quiesced.
  std::vector<ThreadTrace> Snapshot() const;

  /// Events currently retained across all threads (post-drop).
  std::size_t event_count() const;
  /// Total events dropped to ring wrap across all threads
  /// (the "obs.trace.dropped" count in the exported JSON). Safe to
  /// poll while producers are live — the per-thread counters are
  /// atomic — unlike Snapshot(), which needs quiescence.
  std::uint64_t dropped_count() const;

  /// Chrome-trace JSON: {"traceEvents":[...],"displayTimeUnit":"ms",
  /// "droppedEvents":N}. Events are "B"/"E" pairs (ts in microseconds,
  /// pid 1, tid = registration order) preceded by thread_name metadata;
  /// chunk events carry {"chunk":i} args. Load in chrome://tracing or
  /// ui.perfetto.dev.
  std::string ToChromeTraceJson() const;

 private:
  struct ThreadBuffer {
    std::uint32_t tid = 0;
    /// Ring storage; logical order is [pushed - size, pushed).
    std::vector<TraceEvent> ring;
    /// Only the owning thread writes these; they are atomic (relaxed)
    /// because dropped_count() polls them live from the server's
    /// watchdog thread. The ring itself still requires quiescence.
    std::atomic<std::uint64_t> pushed{0};
    std::atomic<std::uint64_t> dropped{0};
  };

  ThreadBuffer* BufferForThisThread();
  void Push(TraceEvent::Phase phase, std::string_view name,
            std::uint64_t chunk);

  const std::size_t capacity_;
  const std::uint64_t log_id_;  // Key for the thread-local buffer cache.
  const std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mu_;  // Guards registration and snapshots.
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// Writes ToChromeTraceJson() (plus a trailing newline) to `path`.
Status WriteTraceJsonFile(const TraceLog& trace, const std::string& path);

/// Wraps a ParallelFor chunk function so each chunk emits a begin/end
/// pair on its executing thread, named `<caller span path>/<stage>` —
/// the caller's path is captured here, on the dispatching thread, which
/// is what propagates span nesting across the pool boundary. While a
/// chunk runs, the worker's Span::CurrentPath() reports that same path,
/// so spans/timers created inside the chunk nest under it too.
/// Null `trace` returns `fn` unchanged.
runtime::ThreadPool::ChunkFn TraceChunks(TraceLog* trace,
                                         std::string_view stage,
                                         runtime::ThreadPool::ChunkFn fn);

}  // namespace mic::obs

#endif  // MICTREND_OBS_TRACE_LOG_H_
