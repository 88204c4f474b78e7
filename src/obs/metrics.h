// Pipeline-wide observability (mic::obs): a registry of named counters,
// gauges, timers, and histograms shared by every stage of the trend
// pipeline.
//
// Design rules:
//   - Hot-path updates are lock-free atomic operations on pre-resolved
//     metric handles; the registry mutex guards only name resolution,
//     which callers do once per fit/stage, not per record.
//   - A null registry costs one pointer compare: every library stage
//     takes `obs::MetricsRegistry*` (usually via mic::ExecContext) and
//     updates through the null-safe helpers below, so the disabled path
//     stays within noise of the uninstrumented build.
//   - Counter values are *deterministic*: every counter in this library
//     accumulates a quantity that is a pure function of the input
//     (EM iterations, Kalman passes, AIC evaluations, ...), and integer
//     atomic addition commutes, so exported counter values are
//     bit-identical at any thread count. Timers and gauges carry wall
//     times and are explicitly outside that contract; the exporter
//     keeps the two groups in separate JSON sections so harnesses can
//     compare the deterministic part verbatim.
//   - Export order is the lexicographic metric name, so two registries
//     that saw the same updates serialize to identical bytes.

#ifndef MICTREND_OBS_METRICS_H_
#define MICTREND_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace mic::obs {

/// Monotonic event count. Lock-free; relaxed ordering is enough because
/// readers only snapshot after the producing stage has joined.
class Counter {
 public:
  void Increment(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins scalar (plus Add for accumulating wall times from
/// several producers). Not part of the determinism contract.
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  void Add(double delta) {
    // CAS loop instead of fetch_add: atomic<double>::fetch_add is C++20
    // and still patchy across toolchains.
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Event count plus total duration. The count is deterministic whenever
/// the traced code runs a deterministic number of times; the seconds
/// never are.
class Timer {
 public:
  void Record(std::uint64_t nanos) {
    count_.fetch_add(1, std::memory_order_relaxed);
    nanos_.fetch_add(nanos, std::memory_order_relaxed);
  }
  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double seconds() const {
    return static_cast<double>(nanos_.load(std::memory_order_relaxed)) *
           1e-9;
  }

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> nanos_{0};
};

/// Fixed-edge histogram: edges are ascending upper bounds; a value
/// lands in the first bucket with value <= edge, or the implicit
/// +infinity bucket past the last edge. Bucket counts and the total
/// count are deterministic for deterministic observations; the sum is a
/// float accumulation and therefore is not (when observed concurrently).
class Histogram {
 public:
  void Observe(double value);

  const std::vector<double>& edges() const { return edges_; }
  /// Count of bucket i, i in [0, edges().size()]; the last index is the
  /// overflow (+inf) bucket.
  std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  // The windowed layer (window.h) embeds histograms in its slot ring
  // and recycles them as the window slides, which needs the private
  // constructor and Reset().
  friend class WindowedChannel;
  explicit Histogram(std::vector<double> edges);

  /// Zeroes every bucket, the count, and the sum. Only the windowed
  /// layer calls this (on slot turnover); registry-owned histograms are
  /// cumulative for the process lifetime.
  void Reset();

  std::vector<double> edges_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Thread-safe registry of named metrics. Metric objects live as long
/// as the registry and their addresses are stable, so handles resolved
/// once can be updated lock-free from any thread.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates the named metric. Names are dotted lowercase
  /// identifiers ("em.iterations"); the exporter does not escape them.
  Counter* counter(std::string_view name);
  Gauge* gauge(std::string_view name);
  Timer* timer(std::string_view name);
  /// `edges` applies on first creation only (a second caller naming the
  /// same histogram gets the existing instance regardless of edges).
  Histogram* histogram(std::string_view name, std::vector<double> edges);

  /// Value of a counter, or 0 when it was never touched (convenient for
  /// tests and report printers).
  std::uint64_t counter_value(std::string_view name) const;

  /// Full deterministic-order snapshot:
  /// {"counters":{...},"gauges":{...},"timers":{...},"histograms":{...}}
  /// Counter values are bit-identical at any thread count; gauges,
  /// timer seconds, and histogram sums are not.
  std::string ToJson() const;

  /// Only the deterministic section: {"em.iterations":12,...}. This is
  /// the string harnesses compare across thread counts.
  std::string CountersToJson() const;

  /// Point-in-time copies of every metric, name-ascending. These feed
  /// exposition formats that need to iterate (the OpenMetrics renderer
  /// in openmetrics.h); the registry mutex is held only while copying.
  struct TimerValue {
    std::uint64_t count = 0;
    double seconds = 0.0;
  };
  struct HistogramValue {
    std::vector<double> edges;
    std::vector<std::uint64_t> buckets;  // edges.size() + 1 (+inf last)
    std::uint64_t count = 0;
    double sum = 0.0;
  };
  std::vector<std::pair<std::string, std::uint64_t>> SnapshotCounters()
      const;
  std::vector<std::pair<std::string, double>> SnapshotGauges() const;
  std::vector<std::pair<std::string, TimerValue>> SnapshotTimers() const;
  std::vector<std::pair<std::string, HistogramValue>> SnapshotHistograms()
      const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Timer>, std::less<>> timers_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>>
      histograms_;
};

/// Writes ToJson() (plus a trailing newline) to `path`.
Status WriteMetricsJsonFile(const MetricsRegistry& registry,
                            const std::string& path);

/// Null-safe handle resolution: library stages hold a possibly-null
/// registry and resolve handles once per stage.
inline Counter* GetCounter(MetricsRegistry* registry,
                           std::string_view name) {
  return registry == nullptr ? nullptr : registry->counter(name);
}
inline Gauge* GetGauge(MetricsRegistry* registry, std::string_view name) {
  return registry == nullptr ? nullptr : registry->gauge(name);
}
inline Timer* GetTimer(MetricsRegistry* registry, std::string_view name) {
  return registry == nullptr ? nullptr : registry->timer(name);
}
inline Histogram* GetHistogram(MetricsRegistry* registry,
                               std::string_view name,
                               std::vector<double> edges) {
  return registry == nullptr
             ? nullptr
             : registry->histogram(name, std::move(edges));
}

/// Null-safe updates for the resolved handles.
inline void Increment(Counter* counter, std::uint64_t delta = 1) {
  if (counter != nullptr) counter->Increment(delta);
}
inline void Set(Gauge* gauge, double value) {
  if (gauge != nullptr) gauge->Set(value);
}
inline void Add(Gauge* gauge, double delta) {
  if (gauge != nullptr) gauge->Add(delta);
}
inline void Observe(Histogram* histogram, double value) {
  if (histogram != nullptr) histogram->Observe(value);
}

}  // namespace mic::obs

#endif  // MICTREND_OBS_METRICS_H_
