// Measurement helpers of the mictrend benchmark: the percentile rule,
// the open-loop arrival schedule, the rate ladder's crossing estimate,
// the span recorder with its Chrome-trace export, and the per-layer
// self-time computation. Everything here is program-agnostic;
// bench_lib_test.cc covers it.

#ifndef PERFBENCH_BENCH_LIB_H_
#define PERFBENCH_BENCH_LIB_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// A nearest-rank percentile: the ceil(q * n)-th smallest of n samples.
/// `beyond` counts the samples ranked above it; the benchmark reports
/// the value only when `reportable` (at least kMinBeyond such samples).
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
  bool reportable = false;
};

inline constexpr std::size_t kMinBeyond = 10;

/// `q` in (0, 1]. An empty sample set yields an unreportable zero.
Percentile NearestRank(std::vector<double> samples, double q);

/// Poisson send times (seconds from the step start, ascending, all
/// < duration_s) for one connection offered `rate_per_s`. A pure
/// function of its arguments: the same seed gives the same schedule.
std::vector<double> PoissonSchedule(std::uint64_t seed, double rate_per_s,
                                    double duration_s);

/// The rate at which the slow share of a load ladder first exceeds
/// `limit`. `rates` ascend; `shares[i]` is the share of rung i's requests
/// that were slow, and `weights[i]` (> 0) its request count. The shares
/// are first fitted by the closest non-decreasing sequence (weighted
/// least squares, pool-adjacent-violators), so one noisy rung is pooled
/// with its neighbours instead of deciding the answer. The result is
/// interpolated linearly between the fitted points around the crossing;
/// it is rates[0] * limit / share when the first point is already over,
/// and the last rate when no point is.
double CrossingRate(const std::vector<double>& rates,
                    const std::vector<double>& shares,
                    const std::vector<double>& weights, double limit);

/// splitmix64 finalizer, used to derive independent seeds.
std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t salt);

/// Uniform double in [0, 1) from a 64-bit state (advanced in place).
double NextUniform(std::uint64_t& state);

/// One recorded span. Times are seconds since the recorder's epoch.
struct SpanRecord {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int id = 0;
  int parent = -1;  // -1: a root span
  int thread = 0;
  /// Request id shared by every span of one serve request (0: none).
  std::uint64_t request = 0;
};

/// In-memory span store. Spans nest per thread through a thread-local
/// stack, so a ScopedSpan's parent is the innermost open span of its
/// thread unless one is given. Thread-safe; a null recorder records
/// nothing, which is how untraced runs pay no cost.
class SpanRecorder {
 public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  double Now() const;
  /// Opens a span and makes it the calling thread's innermost one.
  int Begin(const std::string& name, std::uint64_t request = 0);
  void End(int id);
  /// Records a finished span with explicit times and parent.
  int Add(const std::string& name, double start, double end, int parent,
          std::uint64_t request);

  std::vector<SpanRecord> Snapshot() const;

  /// Chrome-trace JSON ("B"/"E" pairs per span with id/parent/request
  /// args, thread-name metadata, top-level droppedEvents), the format
  /// `mictrend --trace-out` writes, so Perfetto opens both.
  std::string ToChromeTraceJson() const;

 private:
  int ThreadIndex();

  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;       // guarded by mu_
  std::map<std::uint64_t, int> threads_;  // guarded by mu_
};

/// RAII span on `recorder` (no-op when null).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name,
             std::uint64_t request = 0)
      : recorder_(recorder),
        id_(recorder ? recorder->Begin(name, request) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int id_;
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers. Indexed like
/// `spans`.
std::vector<double> SelfTimes(const std::vector<SpanRecord>& spans);

/// Self time summed per layer, the span-name prefix before the first
/// '.' ("trend.analyze" -> "trend").
std::map<std::string, double> SelfTimeByLayer(
    const std::vector<SpanRecord>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_LIB_H_
