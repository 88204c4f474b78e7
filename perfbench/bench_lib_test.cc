// Tests of the benchmark's own measurement rules: nearest-rank
// percentiles with their sample-count guard, the seeded arrival
// schedule, the ladder's crossing rate, and span self time. Exits
// non-zero on the first failure.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "bench_lib.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool condition, const char* what, int line) {
  if (!condition) {
    std::fprintf(stderr, "bench_lib_test:%d: FAILED %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void TestNearestRank() {
  std::vector<double> hundred(100);
  std::iota(hundred.begin(), hundred.end(), 1.0);  // 1..100
  const Percentile p50 = NearestRank(hundred, 0.50);
  EXPECT(Near(p50.value, 50.0));
  EXPECT(p50.beyond == 50 && p50.samples == 100 && p50.reportable);
  // p99 of 100 samples is the 99th value with one sample beyond it:
  // too few to report.
  const Percentile p99 = NearestRank(hundred, 0.99);
  EXPECT(Near(p99.value, 99.0));
  EXPECT(p99.beyond == 1 && !p99.reportable);
  // Input order does not matter.
  std::vector<double> reversed(hundred.rbegin(), hundred.rend());
  EXPECT(Near(NearestRank(reversed, 0.50).value, 50.0));
  // The rank is ceil(q * n): q = 0.5 of 5 samples is the 3rd.
  EXPECT(Near(NearestRank({5, 1, 4, 2, 3}, 0.5).value, 3.0));
  EXPECT(Near(NearestRank({7.0}, 0.99).value, 7.0));
  EXPECT(!NearestRank({}, 0.5).reportable);
  // p99 needs 1000 samples for ten beyond it.
  std::vector<double> thousand(1000);
  std::iota(thousand.begin(), thousand.end(), 1.0);
  const Percentile p99k = NearestRank(thousand, 0.99);
  EXPECT(Near(p99k.value, 990.0) && p99k.beyond == 10 && p99k.reportable);
  thousand.pop_back();
  EXPECT(!NearestRank(thousand, 0.99).reportable);
}

void TestPoissonSchedule() {
  const std::vector<double> a = PoissonSchedule(42, 50.0, 20.0);
  const std::vector<double> b = PoissonSchedule(42, 50.0, 20.0);
  const std::vector<double> c = PoissonSchedule(43, 50.0, 20.0);
  EXPECT(a == b);  // deterministic for a seed
  EXPECT(a != c);  // another seed, another schedule
  EXPECT(!a.empty() && a.front() >= 0.0 && a.back() < 20.0);
  bool ascending = true;
  for (std::size_t i = 1; i < a.size(); ++i) ascending &= a[i] > a[i - 1];
  EXPECT(ascending);
  // About rate * duration arrivals (1000 expected, sd ~32).
  EXPECT(a.size() > 850 && a.size() < 1150);
  EXPECT(PoissonSchedule(1, 0.0, 10.0).empty());
  EXPECT(MixSeed(1, 2) != MixSeed(1, 3) && MixSeed(1, 2) == MixSeed(1, 2));
}

SpanRecord MakeSpan(const char* name, double start, double end, int id,
                    int parent) {
  SpanRecord span;
  span.name = name;
  span.start = start;
  span.end = end;
  span.id = id;
  span.parent = parent;
  return span;
}

void TestSelfTimes() {
  // root [0,10] with children [1,4] and [3,6] (overlapping: union 5)
  // and [9,12] (clipped to the root's end: covers 1); the first child
  // has a grandchild [2,3].
  const std::vector<SpanRecord> spans = {
      MakeSpan("bench.root", 0, 10, 0, -1),
      MakeSpan("trend.a", 1, 4, 1, 0),
      MakeSpan("trend.b", 3, 6, 2, 0),
      MakeSpan("store.c", 9, 12, 3, 0),
      MakeSpan("ssm.d", 2, 3, 4, 1),
  };
  const std::vector<double> self = SelfTimes(spans);
  EXPECT(Near(self[0], 10.0 - 5.0 - 1.0));
  EXPECT(Near(self[1], 2.0));
  EXPECT(Near(self[2], 3.0));
  EXPECT(Near(self[3], 3.0));
  EXPECT(Near(self[4], 1.0));
  const auto layers = SelfTimeByLayer(spans);
  EXPECT(Near(layers.at("bench"), 4.0));
  EXPECT(Near(layers.at("trend"), 5.0));
  EXPECT(Near(layers.at("store"), 3.0));
  EXPECT(Near(layers.at("ssm"), 1.0));
}

void TestCrossingRate() {
  const std::vector<double> rates{20, 40, 60, 80};
  const std::vector<double> even{1, 1, 1, 1};
  // Monotone shares: linear interpolation around the crossing.
  EXPECT(Near(CrossingRate(rates, {0.0, 0.05, 0.15, 0.3}, even, 0.1), 50.0));
  // A noisy rung over the limit followed by one under it is pooled with
  // it: 40 and 60 both fit to 0.09, so the crossing lies past 60.
  EXPECT(Near(CrossingRate(rates, {0.0, 0.12, 0.06, 0.3}, even, 0.1),
              60.0 + 0.01 / 0.21 * 20.0));
  // Weights decide the pooled value: the heavier rung dominates.
  EXPECT(Near(CrossingRate(rates, {0.0, 0.12, 0.06, 0.3}, {1, 1, 3, 1}, 0.1),
              60.0 + (0.1 - 0.075) / (0.3 - 0.075) * 20.0));
  // Already over at the first rate: scaled down from it.
  EXPECT(Near(CrossingRate({20}, {0.2}, {1}, 0.1), 10.0));
  // Never over: the last rate.
  EXPECT(Near(CrossingRate(rates, {0.0, 0.01, 0.02, 0.05}, even, 0.1), 80.0));
}

void TestRecorder() {
  SpanRecorder recorder;
  {
    ScopedSpan outer(&recorder, "serve.request", 7);
    ScopedSpan inner(&recorder, "serve.handle");
  }
  const std::vector<SpanRecord> spans = recorder.Snapshot();
  EXPECT(spans.size() == 2);
  EXPECT(spans[1].parent == 0 && spans[0].parent == -1);
  EXPECT(spans[1].request == 7);  // children inherit the request id
  EXPECT(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
  const std::string json = recorder.ToChromeTraceJson();
  EXPECT(json.find("\"ph\":\"B\"") != std::string::npos);
  EXPECT(json.find("\"droppedEvents\":0") != std::string::npos);
  // The outer span begins first and ends last.
  EXPECT(json.find("serve.request") < json.find("serve.handle"));
  EXPECT(json.rfind("serve.request") > json.rfind("serve.handle"));
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestNearestRank();
  perfbench::TestPoissonSchedule();
  perfbench::TestSelfTimes();
  perfbench::TestCrossingRate();
  perfbench::TestRecorder();
  if (perfbench::failures != 0) return 1;
  std::puts("bench_lib_test: all passed");
  return 0;
}
