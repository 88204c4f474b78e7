#include "ssm/changepoint.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace mic::ssm {
namespace {

std::vector<double> SlopeBreakSeries(int n, int change_point, double slope,
                                     double noise_sd, std::uint64_t seed,
                                     double season_amp = 0.0) {
  Rng rng(seed);
  std::vector<double> x(n);
  for (int t = 0; t < n; ++t) {
    double value = 10.0;
    value += season_amp * std::sin(2.0 * M_PI * t / 12.0);
    if (change_point >= 0 && t >= change_point) {
      value += slope * (t - change_point + 1);
    }
    value += rng.NextGaussian(0.0, noise_sd);
    x[t] = value;
  }
  return x;
}

ChangePointOptions FastOptions(bool seasonal = false,
                               double aic_margin = 0.0) {
  ChangePointOptions options;
  options.seasonal = seasonal;
  options.fit.optimizer.max_evaluations = 200;
  options.aic_margin = aic_margin;
  return options;
}

TEST(ChangePointTest, ExactFindsPlantedBreak) {
  const auto x = SlopeBreakSeries(43, 22, 1.2, 0.4, 7);
  ChangePointDetector detector(x, FastOptions());
  auto result = detector.DetectExact();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->has_change);
  EXPECT_NEAR(result->change_point, 22, 2);
}

TEST(ChangePointTest, ApproximateFindsBreakNearby) {
  const auto x = SlopeBreakSeries(43, 22, 1.2, 0.4, 7);
  ChangePointDetector detector(x, FastOptions());
  auto result = detector.DetectApproximate();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->has_change);
  EXPECT_NEAR(result->change_point, 22, 6);
}

TEST(ChangePointTest, ApproximateUsesFarFewerFits) {
  const auto x = SlopeBreakSeries(43, 20, 1.0, 0.4, 11);
  ChangePointDetector exact(x, FastOptions());
  ASSERT_TRUE(exact.DetectExact().ok());
  ChangePointDetector approximate(x, FastOptions());
  ASSERT_TRUE(approximate.DetectApproximate().ok());
  // Exact: 42 candidates + no-change. Approximate: ~log2(43) + 2.
  EXPECT_EQ(exact.fits_performed(), 43);
  EXPECT_LE(approximate.fits_performed(), 10);
}

TEST(ChangePointTest, FlatNoiseRarelyYieldsChangeWithMargin) {
  // Plain AIC (margin 0) over ~40 candidates picks up spurious breaks on
  // pure noise at a substantial rate (select-the-minimum optimism); a
  // modest evidence margin suppresses them while, per the planted-break
  // tests above, keeping full recall on genuine breaks.
  int detections_margin0 = 0;
  int detections_margin4 = 0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(400 + seed);
    std::vector<double> x(43);
    for (double& value : x) value = rng.NextGaussian(5.0, 1.0);
    ChangePointDetector plain(x, FastOptions());
    auto plain_result = plain.DetectExact();
    ASSERT_TRUE(plain_result.ok());
    if (plain_result->has_change) ++detections_margin0;
    ChangePointDetector margined(x, FastOptions(false, 4.0));
    auto margined_result = margined.DetectExact();
    ASSERT_TRUE(margined_result.ok());
    if (margined_result->has_change) ++detections_margin4;
  }
  EXPECT_LE(detections_margin4, 2);
  EXPECT_LE(detections_margin4, detections_margin0);
}

TEST(ChangePointTest, MarginKeepsRecallOnStrongBreaks) {
  int detections = 0;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const auto x = SlopeBreakSeries(43, 22, 1.2, 0.4, 500 + seed);
    ChangePointDetector detector(x, FastOptions(false, 4.0));
    auto result = detector.DetectExact();
    ASSERT_TRUE(result.ok());
    if (result->has_change) ++detections;
  }
  EXPECT_EQ(detections, 6);
}

TEST(ChangePointTest, SeasonalSeriesWithoutBreakYieldsNoChange) {
  const auto x = SlopeBreakSeries(43, -1, 0.0, 0.3, 17, /*season_amp=*/3.0);
  ChangePointDetector detector(
      x, FastOptions(/*seasonal=*/true, /*aic_margin=*/4.0));
  auto result = detector.DetectExact();
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->has_change);
}

TEST(ChangePointTest, SeasonalBreakDetectedUnderSeasonality) {
  const auto x = SlopeBreakSeries(43, 25, 1.5, 0.3, 19, /*season_amp=*/3.0);
  ChangePointDetector detector(x, FastOptions(/*seasonal=*/true));
  auto result = detector.DetectExact();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->has_change);
  EXPECT_NEAR(result->change_point, 25, 3);
}

TEST(ChangePointTest, AicCurveDipsAtTrueBreak) {
  const auto x = SlopeBreakSeries(43, 18, 1.5, 0.3, 23);
  ChangePointDetector detector(x, FastOptions());
  auto curve = detector.AicCurve();
  ASSERT_TRUE(curve.ok());
  // The minimum of the curve lies near the planted break (Fig. 5).
  int argmin = 1;
  for (int t = 1; t < 43; ++t) {
    if ((*curve)[t] < (*curve)[argmin]) argmin = t;
  }
  EXPECT_NEAR(argmin, 18, 2);
  // Far-away candidates are clearly worse.
  EXPECT_GT((*curve)[5], (*curve)[argmin] + 2.0);
}

TEST(ChangePointTest, AicCurveIsTheExactSweep) {
  const auto x = SlopeBreakSeries(43, 18, 1.5, 0.3, 23);
  const ChangePointOptions options = FastOptions();
  ChangePointDetector detector(x, options);
  auto curve = detector.AicCurve();
  ASSERT_TRUE(curve.ok());
  ASSERT_EQ(curve->size(), x.size());
  // t = 0 lies before min_candidate: never searched.
  EXPECT_TRUE(std::isnan((*curve)[0]));
  // Every searched entry is the criterion EvaluateCandidate fits.
  for (int t = options.min_candidate; t < 43; ++t) {
    auto evaluation = EvaluateCandidate(x, options, t);
    ASSERT_TRUE(evaluation.ok());
    EXPECT_EQ((*curve)[t], evaluation->criterion) << "t = " << t;
  }
  // The curve was the exact search itself, no-change fit included.
  const int fits_after_curve = detector.fits_performed();
  ASSERT_TRUE(detector.DetectExact().ok());
  EXPECT_EQ(detector.fits_performed(), fits_after_curve);
}

TEST(ChangePointTest, CacheMakesSecondRunFree) {
  const auto x = SlopeBreakSeries(43, 20, 1.0, 0.4, 29);
  ChangePointDetector detector(x, FastOptions());
  ASSERT_TRUE(detector.DetectExact().ok());
  const int fits_after_exact = detector.fits_performed();
  auto memoized = detector.DetectApproximate();
  ASSERT_TRUE(memoized.ok());
  EXPECT_EQ(detector.fits_performed(), fits_after_exact);
  // A memo hit never changes an answer: the approximate search answered
  // from the exact run's fits agrees bit for bit with a fresh one.
  auto fresh = ChangePointDetector(x, FastOptions()).DetectApproximate();
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(memoized->has_change, fresh->has_change);
  EXPECT_EQ(memoized->change_point, fresh->change_point);
  EXPECT_EQ(memoized->best_aic, fresh->best_aic);
  EXPECT_EQ(memoized->aic_without_intervention,
            fresh->aic_without_intervention);
}

// Property (paper Table VI: "no false-positive case exists ... due to
// the nature of Algorithm 2"): whenever the exact search declares no
// change, the approximate search must also declare no change, because
// its final AIC comparison uses a candidate from the same pool.
class NoFalsePositiveTest : public ::testing::TestWithParam<int> {};

TEST_P(NoFalsePositiveTest, ApproximateNeverFlagsWhenExactDoesNot) {
  Rng rng(1000 + static_cast<std::uint64_t>(GetParam()));
  std::vector<double> x(43);
  for (double& value : x) value = rng.NextGaussian(8.0, 1.0);
  ChangePointDetector exact(x, FastOptions());
  ChangePointDetector approximate(x, FastOptions());
  auto exact_result = exact.DetectExact();
  auto approximate_result = approximate.DetectApproximate();
  ASSERT_TRUE(exact_result.ok());
  ASSERT_TRUE(approximate_result.ok());
  if (!exact_result->has_change) {
    EXPECT_FALSE(approximate_result->has_change);
  }
}

INSTANTIATE_TEST_SUITE_P(NoiseSeeds, NoFalsePositiveTest,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace mic::ssm
