// RAII stage tracing on top of the metrics registry and the event
// trace buffer.
//
// A Span names one pipeline stage; nested spans build a '/'-joined path
// on a thread-local stack (pipeline -> pipeline/reproduce ->
// pipeline/reproduce/em_fit). At destruction each span records
// {count, seconds} into the registry's timer of the same path, and —
// when a TraceLog travels in the ExecContext — emits a begin/end event
// pair onto the calling thread's trace timeline.
//
// Spans cover the serial skeleton of a run. Per-item work inside a
// parallel stage uses a pre-resolved Timer with ScopedTimer (worker
// threads do not inherit the caller's span stack); wrapping the chunk
// function with obs::TraceChunks() (trace_log.h) is what carries the
// caller's span path across the pool boundary, after which nested
// spans/timers on the worker resolve against the chunk's path.
//
// Both types are inert when constructed against null sinks: no clock
// read, no stack traffic.

#ifndef MICTREND_OBS_TRACE_H_
#define MICTREND_OBS_TRACE_H_

#include <chrono>
#include <string>
#include <string_view>

#include "common/exec_context.h"
#include "obs/metrics.h"

namespace mic::obs {

class TraceLog;

/// One nested, named stage. Must be destroyed in LIFO order on the
/// thread that created it (the natural shape of a scoped local).
class Span {
 public:
  Span(MetricsRegistry* registry, std::string_view name);
  /// Records into both of the context's sinks (either may be null).
  Span(const ExecContext& context, std::string_view name);
  /// Stack-only span: installs `path` verbatim as this thread's current
  /// span path without recording anything. Used by TraceChunks to carry
  /// the dispatching thread's nesting onto pool workers.
  explicit Span(std::string path);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Full '/'-joined path of this span ("pipeline/reproduce").
  const std::string& path() const { return path_; }

  /// Path of the innermost live span on this thread ("" when none).
  static std::string CurrentPath();

 private:
  Span(MetricsRegistry* registry, TraceLog* trace, std::string_view name);

  MetricsRegistry* registry_ = nullptr;
  TraceLog* trace_ = nullptr;
  bool engaged_ = false;
  Span* parent_ = nullptr;
  std::string path_;
  std::chrono::steady_clock::time_point start_;
};

/// Records one {count, duration} observation into a timer. The
/// Timer*-taking constructor is the hot-path form: resolve the handle
/// once, then construct against it per item (null handle = inert).
/// The three-argument form additionally emits `<CurrentPath()>/<name>`
/// begin/end events onto `trace` (null trace = timer only, null timer =
/// trace events only), putting per-item work on the trace timeline.
class ScopedTimer {
 public:
  explicit ScopedTimer(Timer* timer);
  ScopedTimer(MetricsRegistry* registry, std::string_view name);
  ScopedTimer(Timer* timer, TraceLog* trace, std::string_view name);
  ~ScopedTimer();

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Timer* timer_;
  TraceLog* trace_ = nullptr;
  std::string trace_path_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace mic::obs

#endif  // MICTREND_OBS_TRACE_H_
