#include "obs/trace_log.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <utility>

#include "common/strings.h"
#include "obs/trace.h"

namespace mic::obs {
namespace {

using Clock = std::chrono::steady_clock;

// Cache of this thread's buffer per TraceLog instance. Keyed by a
// process-unique log id (not the address) so an entry left behind by a
// destroyed log can never alias a new one; entries are few (one per log
// a thread has recorded into) and scanned linearly.
thread_local std::vector<std::pair<std::uint64_t, void*>> tl_buffers;

std::uint64_t NextLogId() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

TraceLog::TraceLog(std::size_t capacity_per_thread)
    : capacity_(std::max<std::size_t>(1, capacity_per_thread)),
      log_id_(NextLogId()),
      epoch_(Clock::now()) {}

std::uint64_t TraceLog::NowNs() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch_)
          .count());
}

TraceLog::ThreadBuffer* TraceLog::BufferForThisThread() {
  for (const auto& [id, buffer] : tl_buffers) {
    if (id == log_id_) return static_cast<ThreadBuffer*>(buffer);
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto buffer = std::make_unique<ThreadBuffer>();
  buffer->tid = static_cast<std::uint32_t>(buffers_.size());
  buffer->ring.reserve(std::min<std::size_t>(capacity_, 1024));
  ThreadBuffer* raw = buffer.get();
  buffers_.push_back(std::move(buffer));
  tl_buffers.emplace_back(log_id_, raw);
  return raw;
}

void TraceLog::Push(TraceEvent::Phase phase, std::string_view name,
                    std::uint64_t chunk) {
  ThreadBuffer* buffer = BufferForThisThread();
  TraceEvent event;
  event.phase = phase;
  event.ts_ns = NowNs();
  event.name.assign(name);
  event.chunk = chunk;
  const std::uint64_t pushed =
      buffer->pushed.load(std::memory_order_relaxed);
  if (buffer->ring.size() < capacity_) {
    buffer->ring.push_back(std::move(event));
  } else {
    // Ring wrap: overwrite the oldest surviving event and account for
    // the drop instead of silently truncating the tail.
    buffer->ring[pushed % capacity_] = std::move(event);
    buffer->dropped.fetch_add(1, std::memory_order_relaxed);
  }
  buffer->pushed.store(pushed + 1, std::memory_order_relaxed);
}

void TraceLog::BeginEvent(std::string_view name, std::uint64_t chunk) {
  Push(TraceEvent::Phase::kBegin, name, chunk);
}

void TraceLog::EndEvent(std::string_view name, std::uint64_t chunk) {
  Push(TraceEvent::Phase::kEnd, name, chunk);
}

std::vector<ThreadTrace> TraceLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ThreadTrace> snapshot;
  snapshot.reserve(buffers_.size());
  for (const auto& buffer : buffers_) {
    ThreadTrace trace;
    trace.tid = buffer->tid;
    trace.dropped = buffer->dropped.load(std::memory_order_relaxed);
    trace.events.reserve(buffer->ring.size());
    // Logical order is [pushed - size, pushed); after a wrap the oldest
    // surviving event sits at pushed % capacity.
    const std::size_t size = buffer->ring.size();
    const std::size_t start =
        size < capacity_
            ? 0
            : buffer->pushed.load(std::memory_order_relaxed) % capacity_;
    for (std::size_t i = 0; i < size; ++i) {
      trace.events.push_back(buffer->ring[(start + i) % size]);
    }
    snapshot.push_back(std::move(trace));
  }
  return snapshot;
}

std::size_t TraceLog::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t count = 0;
  for (const auto& buffer : buffers_) count += buffer->ring.size();
  return count;
}

std::uint64_t TraceLog::dropped_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t dropped = 0;
  for (const auto& buffer : buffers_) {
    dropped += buffer->dropped.load(std::memory_order_relaxed);
  }
  return dropped;
}

std::string TraceLog::ToChromeTraceJson() const {
  const std::vector<ThreadTrace> threads = Snapshot();
  std::string json = "{\"traceEvents\":[";
  bool first = true;
  for (const ThreadTrace& thread : threads) {
    if (!first) json += ',';
    first = false;
    json += StrFormat(
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%u,"
        "\"args\":{\"name\":\"thread-%u\"}}",
        thread.tid, thread.tid);
    for (const TraceEvent& event : thread.events) {
      json += ",{\"name\":\"";
      AppendJsonEscaped(json, event.name);
      json += StrFormat(
          "\",\"cat\":\"mictrend\",\"ph\":\"%c\",\"pid\":1,\"tid\":%u,"
          "\"ts\":%.3f",
          event.phase == TraceEvent::Phase::kBegin ? 'B' : 'E', thread.tid,
          static_cast<double>(event.ts_ns) * 1e-3);
      if (event.chunk != TraceEvent::kNoChunk) {
        json += StrFormat(",\"args\":{\"chunk\":%llu}",
                          static_cast<unsigned long long>(event.chunk));
      }
      json += '}';
    }
  }
  json += StrFormat(
      "],\"displayTimeUnit\":\"ms\",\"droppedEvents\":%llu}",
      static_cast<unsigned long long>(dropped_count()));
  return json;
}

Status WriteTraceJsonFile(const TraceLog& trace, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path);
  out << trace.ToChromeTraceJson() << '\n';
  if (!out) return Status::IoError("failed writing " + path);
  return Status::OK();
}

runtime::ThreadPool::ChunkFn TraceChunks(TraceLog* trace,
                                         std::string_view stage,
                                         runtime::ThreadPool::ChunkFn fn) {
  if (trace == nullptr) return fn;
  // Capture the dispatching thread's span path NOW: chunks execute on
  // pool workers whose own span stacks are empty, and this captured
  // prefix is what nests their events under the owning stage.
  std::string path = Span::CurrentPath();
  if (path.empty()) {
    path.assign(stage);
  } else {
    path += '/';
    path += stage;
  }
  return [trace, path = std::move(path), fn = std::move(fn)](
             std::size_t chunk_begin, std::size_t chunk_end,
             std::size_t chunk_index) {
    trace->BeginEvent(path, chunk_index);
    Status status;
    {
      // Stack-only span: while the chunk runs, code inside it (nested
      // spans, traced ScopedTimers) sees `path` as its parent.
      Span chunk_scope(path);
      status = fn(chunk_begin, chunk_end, chunk_index);
    }
    trace->EndEvent(path, chunk_index);
    return status;
  };
}

}  // namespace mic::obs
