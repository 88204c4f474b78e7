// Sliding-window telemetry (mic::obs v3): rolling latency/error/rate
// aggregation for a live daemon, complementing the cumulative-since-
// start registry in metrics.h.
//
// A WindowRegistry holds named channels (one per serve endpoint or
// internal stage). Each channel is a fixed ring of time slots
// (default 10 s x 60 slots = a 10-minute horizon); a slot embeds one
// obs::Histogram plus an error atomic and is stamped with the absolute
// slot epoch it currently holds. Recording is lock-free: the recorder
// computes the current epoch from the clock, CASes the slot's epoch
// forward if the ring has wrapped past it (the CAS winner resets the
// slot), and then observes into the slot's histogram. Aggregation
// merges the slots whose epoch falls inside the requested lookback and
// derives count, error rate, rps, mean, and p50/p95/p99 from the merged
// buckets.
//
// Next to the ring, every channel keeps cumulative totals (requests,
// errors, integer nanoseconds) that no slot turnover resets. They are
// the channel's counters: ToJson() carries them as "totals" and the
// OpenMetrics renderer as the mictrend_channel_*_total families, so a
// serve op needs no second instrument for its since-start counts.
//
// Concurrency contract: every field a recorder or reader touches is an
// atomic, so the structure is race-free (TSan-clean) at any thread
// count. Samples racing a slot turnover can land in a slot that is
// being reset and be lost from the windows, and an aggregation racing a
// turnover skips the slot it caught mid-reset — bounded smear that
// telemetry tolerates, never a torn value. The totals lose nothing:
// each Record() adds to them whatever happens to its slot. Single-
// threaded use with an injected clock is exactly deterministic, which
// is what the tests pin.
//
// The clock is injectable (nanoseconds, monotone) so tests drive the
// window by hand; the default is the steady clock relative to the
// registry's construction.

#ifndef MICTREND_OBS_WINDOW_H_
#define MICTREND_OBS_WINDOW_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace mic::obs {

/// Shape of every channel in a WindowRegistry.
struct WindowOptions {
  /// Width of one slot. The effective horizon is
  /// slot_width_ns * num_slots; lookbacks are rounded up to whole
  /// slots and clamped to the horizon.
  std::uint64_t slot_width_ns = 10ull * 1000ull * 1000ull * 1000ull;
  std::size_t num_slots = 60;
  /// Ascending histogram upper edges for Record() values (seconds for
  /// latency channels). Empty = DefaultLatencyEdgesSeconds().
  std::vector<double> value_edges;
  /// The lookbacks ToJson() and the OpenMetrics renderer export,
  /// in seconds ("the last 1/5/10 minutes").
  std::vector<std::uint64_t> lookback_seconds = {60, 300, 600};
};

/// 100 us .. 10 s exponential ladder, wide enough for a poll-bound
/// health round trip and a cold report_csv alike.
const std::vector<double>& DefaultLatencyEdgesSeconds();

/// One lookback's merged view of a channel.
struct WindowStats {
  std::uint64_t count = 0;   // Record() observations
  std::uint64_t errors = 0;
  double rps = 0.0;          // count / lookback seconds
  double error_rate = 0.0;   // errors / count (0 when count == 0)
  double mean = 0.0;         // mean of Record() values
  double p50 = 0.0;          // bucket-upper-edge quantiles of Record()
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;          // upper edge of the highest non-empty bucket
};

/// A channel's cumulative counts since its creation.
struct ChannelTotals {
  std::uint64_t requests = 0;  // Record() calls
  std::uint64_t errors = 0;    // Record() calls with error set
  std::uint64_t nanos = 0;     // sum of Record() values, in nanoseconds

  /// `nanos` in seconds: the one conversion every sink renders.
  double seconds() const { return static_cast<double>(nanos) / 1e9; }
};

class WindowRegistry;

/// One endpoint's (or stage's) slot ring. Create via
/// WindowRegistry::channel(); handles are stable for the registry's
/// lifetime, so resolve once and record lock-free.
class WindowedChannel {
 public:
  /// Observes one value in seconds in the current slot and in the
  /// totals; `error` additionally advances both error counts.
  void Record(double value, bool error = false);

  /// The cumulative counts; monotone, never reset by slot turnover.
  ChannelTotals Totals() const;

  /// Merged stats over the trailing `lookback_ns` (rounded up to whole
  /// slots, clamped to the ring horizon), ending at the current
  /// (partial) slot.
  WindowStats Aggregate(std::uint64_t lookback_ns) const;

 private:
  friend class WindowRegistry;

  struct Slot {
    explicit Slot(std::vector<double> edges) : hist(std::move(edges)) {}
    /// Absolute slot index (NowNs / slot_width) this slot holds, or
    /// kEmptyEpoch before first use.
    std::atomic<std::uint64_t> epoch{kEmptyEpoch};
    std::atomic<std::uint64_t> errors{0};
    Histogram hist;
  };

  static constexpr std::uint64_t kEmptyEpoch = ~std::uint64_t{0};

  explicit WindowedChannel(const WindowRegistry* owner);

  /// The slot for the current epoch, turning the ring over (CAS +
  /// reset) when the wheel has moved past it. Null when this thread
  /// lost a turnover race against a slot already past its epoch.
  Slot* ActiveSlot();

  const WindowRegistry* owner_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::atomic<std::uint64_t> total_requests_{0};
  std::atomic<std::uint64_t> total_errors_{0};
  std::atomic<std::uint64_t> total_nanos_{0};
};

/// Thread-safe registry of named windowed channels. The mutex guards
/// only channel creation and enumeration; recording into a resolved
/// channel never locks.
class WindowRegistry {
 public:
  /// Nanoseconds on a monotone clock; injectable for deterministic
  /// tests. The default is steady-clock time since construction.
  using ClockFn = std::function<std::uint64_t()>;

  explicit WindowRegistry(WindowOptions options = {}, ClockFn clock = {});

  WindowRegistry(const WindowRegistry&) = delete;
  WindowRegistry& operator=(const WindowRegistry&) = delete;

  /// Finds or creates the named channel. Names follow the metric
  /// convention ("serve.health", "serve.swap.drain").
  WindowedChannel* channel(std::string_view name);

  std::uint64_t NowNs() const;
  const WindowOptions& options() const { return options_; }

  /// Every channel, name-ascending. Handles stay valid for the
  /// registry's lifetime.
  std::vector<std::pair<std::string, const WindowedChannel*>> Channels()
      const;

  /// Deterministic snapshot of every channel's totals and of every
  /// channel at every configured lookback:
  /// {"slot_width_seconds":10,"slots":60,"totals":{"serve.health":
  /// {"requests":...,"errors":...,"seconds":...},...},"windows":{"60s":
  /// {"serve.health":{"count":...,"errors":...,"rps":...,
  /// "error_rate":...,"mean":...,"p50":...,"p95":...,"p99":...,
  /// "max":...},...},...}}
  /// This exact payload backs both the HTTP /varz body and the framed
  /// `stats` op, so the two can never drift.
  std::string ToJson() const;

 private:
  WindowOptions options_;
  ClockFn clock_;
  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<WindowedChannel>, std::less<>>
      channels_;
};

/// Null-safe update, mirroring the metrics.h helpers.
inline void Record(WindowedChannel* channel, double value,
                   bool error = false) {
  if (channel != nullptr) channel->Record(value, error);
}

}  // namespace mic::obs

#endif  // MICTREND_OBS_WINDOW_H_
