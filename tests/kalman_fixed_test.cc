// Bit-exactness contract of the fixed-dimension Kalman kernels: for
// every compiled state dimension (1, 5, 12) and every filter entry
// point, the fixed path must reproduce the dynamic path's output to the
// last bit — likelihoods, per-step series, and final state/covariance —
// including under missing observations and the steady-state shortcut,
// on the structural models and on a general dense transition. Also
// covers the dimension dispatch and FitOptions validation.

#include "ssm/kalman_fixed.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ssm/fit.h"
#include "ssm/kalman.h"
#include "ssm/structural.h"

namespace mic::ssm {
namespace {

// Bitwise double equality: distinguishes -0.0 from 0.0 and treats two
// NaNs of the same payload as equal (innovations are NaN at gaps).
void ExpectSameBits(double a, double b, const char* what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << what << ": " << a << " vs " << b;
}

void ExpectSameBits(const std::vector<double>& a,
                    const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ExpectSameBits(a[i], b[i], what);
  }
}

void ExpectSameVector(const la::Vector& a, const la::Vector& b,
                      const char* what) {
  ExpectSameBits(a.data(), b.data(), what);
}

void ExpectSameMatrix(const la::Matrix& a, const la::Matrix& b,
                      const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      ExpectSameBits(a(r, c), b(r, c), what);
    }
  }
}

void ExpectSameFilterResult(const FilterResult& a, const FilterResult& b) {
  ExpectSameBits(a.log_likelihood, b.log_likelihood, "log_likelihood");
  EXPECT_EQ(a.effective_observations, b.effective_observations);
  EXPECT_EQ(a.skipped_diffuse, b.skipped_diffuse);
  ExpectSameBits(a.predictions, b.predictions, "predictions");
  ExpectSameBits(a.prediction_variances, b.prediction_variances,
                 "prediction_variances");
  ExpectSameBits(a.innovations, b.innovations, "innovations");
  ExpectSameVector(a.final_state, b.final_state, "final_state");
  ExpectSameMatrix(a.final_covariance, b.final_covariance,
                   "final_covariance");
  ASSERT_EQ(a.predicted_states.size(), b.predicted_states.size());
  for (std::size_t t = 0; t < a.predicted_states.size(); ++t) {
    ExpectSameVector(a.predicted_states[t], b.predicted_states[t],
                     "predicted_states");
  }
  ASSERT_EQ(a.predicted_covariances.size(), b.predicted_covariances.size());
  for (std::size_t t = 0; t < a.predicted_covariances.size(); ++t) {
    ExpectSameMatrix(a.predicted_covariances[t], b.predicted_covariances[t],
                     "predicted_covariances");
  }
}

// A structural spec whose base model has the requested state dimension:
// 1 = level only, 5 = level + two trig harmonics, 12 = level + the
// paper's period-12 dummy seasonal.
StructuralSpec SpecForDim(int dim) {
  StructuralSpec spec;
  if (dim == 1) {
    spec.seasonal = false;
  } else if (dim == 5) {
    spec.seasonal = true;
    spec.seasonal_form = SeasonalForm::kTrigonometric;
    spec.harmonics = 2;
  } else {
    spec.seasonal = true;
    spec.seasonal_form = SeasonalForm::kDummy;
  }
  return spec;
}

StateSpaceModel ModelForDim(int dim) {
  StructuralVariances variances;
  variances.observation = 0.9;
  variances.level = 0.2;
  variances.seasonal = 0.03;
  auto model = BuildStructuralModel(SpecForDim(dim), variances);
  EXPECT_TRUE(model.ok()) << model.status();
  EXPECT_EQ(model->state_dim(), static_cast<std::size_t>(dim));
  return std::move(model).value();
}

// A model no structural spec builds: a seeded dense T with exact zeros
// and negative entries (at most 0.9/dim in magnitude besides T(0, 0) =
// -0.45, so long runs stay finite), dense R, Q and Z, and an initial
// covariance with an all-zero row and column whose state also starts at
// exactly 0. The structural T entries are only 0, ±1 and cos/sin, so
// this is the input that pins the fixed kernels' sparse products (which
// drop T's zero terms) to the dense dynamic path.
StateSpaceModel GeneralModelForDim(int dim) {
  Rng rng(1000 + dim);
  auto uniform = [&rng](double lo, double hi) {
    return lo + (hi - lo) * rng.NextDouble();
  };
  const std::size_t n = static_cast<std::size_t>(dim);
  constexpr std::size_t kNoise = 2;
  StateSpaceModel model;
  model.transition = la::Matrix(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      const double u = uniform(-1.0, 1.0);
      model.transition(r, c) = std::fabs(u) < 0.35 ? 0.0 : 0.9 * u / dim;
    }
  }
  model.transition(0, 0) = -0.45;
  model.selection = la::Matrix(n, kNoise);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < kNoise; ++c) {
      model.selection(r, c) = uniform(-1.0, 1.0);
    }
  }
  model.state_noise = la::Matrix(kNoise, kNoise);
  model.state_noise(0, 0) = 0.3;
  model.state_noise(1, 1) = 0.1;
  model.state_noise(0, 1) = model.state_noise(1, 0) = 0.05;
  model.observation = la::Vector(n);
  model.initial_state = la::Vector(n);
  for (std::size_t i = 0; i < n; ++i) {
    model.observation[i] = uniform(0.2, 1.2);
    model.initial_state[i] = uniform(-1.0, 1.0);
  }
  model.observation_variance = 0.7;
  // P_1 = A A' + I, then row and column `zero` cleared; a_1[zero] = 0.
  const std::size_t zero = n / 2;
  model.initial_state[zero] = 0.0;
  la::Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) a(r, c) = uniform(-1.0, 1.0);
  }
  model.initial_covariance = la::Matrix(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      if (r == zero || c == zero) continue;
      double total = r == c ? 1.0 : 0.0;
      for (std::size_t k = 0; k < n; ++k) total += a(r, k) * a(c, k);
      model.initial_covariance(r, c) = total;
    }
  }
  EXPECT_TRUE(model.Validate().ok());
  return model;
}

// The inputs every bit-exact loop runs per dimension: the structural
// model and the general one.
std::vector<StateSpaceModel> ModelsForDim(int dim) {
  std::vector<StateSpaceModel> models;
  models.push_back(ModelForDim(dim));
  models.push_back(GeneralModelForDim(dim));
  return models;
}

std::vector<double> MakeSeries(int n, std::uint64_t seed,
                               bool with_gaps = false) {
  Rng rng(seed);
  std::vector<double> x(n);
  for (int t = 0; t < n; ++t) {
    x[t] = 2.0 + 0.05 * t + std::sin(t * 0.5236) +
           rng.NextGaussian(0.0, 0.4);
  }
  if (with_gaps) {
    for (int t = 5; t < n; t += 9) {
      x[t] = std::numeric_limits<double>::quiet_NaN();
    }
  }
  return x;
}

TEST(KalmanFixedTest, KernelTableCoversTheStructuralDimensions) {
  EXPECT_TRUE(HasFixedKernel(1));
  EXPECT_TRUE(HasFixedKernel(5));
  EXPECT_TRUE(HasFixedKernel(12));
  EXPECT_FALSE(HasFixedKernel(0));
  EXPECT_FALSE(HasFixedKernel(2));
  EXPECT_FALSE(HasFixedKernel(3));
  EXPECT_FALSE(HasFixedKernel(13));
}

TEST(KalmanFixedTest, RunFilterBitExactAcrossDims) {
  for (int dim : {1, 5, 12}) {
    for (const StateSpaceModel& model : ModelsForDim(dim)) {
      const auto series = MakeSeries(43, 11 + dim);
      KalmanOptions options;
      options.store_states = true;
      auto fixed = RunFilterFixed(model, series, options);
      auto dynamic = RunFilter(model, series, options);
      ASSERT_TRUE(fixed.ok()) << fixed.status();
      ASSERT_TRUE(dynamic.ok()) << dynamic.status();
      ExpectSameFilterResult(*fixed, *dynamic);
    }
  }
}

TEST(KalmanFixedTest, RunFilterBitExactWithMissingObservations) {
  // A leading gap advances the initial state unfiltered, so a T * a_1
  // whose every term is a zero must still come out +0.0.
  for (int dim : {1, 5, 12}) {
    for (const StateSpaceModel& model : ModelsForDim(dim)) {
      auto series = MakeSeries(60, 23 + dim, /*with_gaps=*/true);
      series[0] = std::numeric_limits<double>::quiet_NaN();
      KalmanOptions options;
      options.store_states = true;
      auto fixed = RunFilterFixed(model, series, options);
      auto dynamic = RunFilter(model, series, options);
      ASSERT_TRUE(fixed.ok()) << fixed.status();
      ASSERT_TRUE(dynamic.ok()) << dynamic.status();
      ExpectSameFilterResult(*fixed, *dynamic);
    }
  }
}

TEST(KalmanFixedTest, RunFilterBitExactThroughSteadyState) {
  // Long series push the time-invariant covariance recursion into its
  // steady state (n >= dim^2 + 20); both paths must take the shortcut
  // at the same step and stay identical.
  for (int dim : {1, 5, 12}) {
    for (const StateSpaceModel& model : ModelsForDim(dim)) {
      const auto series = MakeSeries(220, 31 + dim);
      auto fixed = RunFilterFixed(model, series);
      auto dynamic = RunFilter(model, series);
      ASSERT_TRUE(fixed.ok()) << fixed.status();
      ASSERT_TRUE(dynamic.ok()) << dynamic.status();
      ExpectSameFilterResult(*fixed, *dynamic);

      KalmanOptions no_steady;
      no_steady.allow_steady_state = false;
      auto fixed_ns = RunFilterFixed(model, series, no_steady);
      auto dynamic_ns = RunFilter(model, series, no_steady);
      ASSERT_TRUE(fixed_ns.ok()) << fixed_ns.status();
      ASSERT_TRUE(dynamic_ns.ok()) << dynamic_ns.status();
      ExpectSameFilterResult(*fixed_ns, *dynamic_ns);
    }
  }
}

TEST(KalmanFixedTest, RegressionBitExactAcrossDims) {
  for (int dim : {1, 5, 12}) {
    for (const StateSpaceModel& model : ModelsForDim(dim)) {
      for (bool with_gaps : {false, true}) {
        const auto series = MakeSeries(43, 47 + dim, with_gaps);
        const auto regressor =
            SlopeShiftRegressor(20, static_cast<int>(series.size()));
        KalmanOptions options;
        options.store_states = true;
        auto fixed =
            RunFilterWithRegressionFixed(model, series, regressor, options);
        auto dynamic =
            RunFilterWithRegression(model, series, regressor, options);
        ASSERT_TRUE(fixed.ok()) << fixed.status();
        ASSERT_TRUE(dynamic.ok()) << dynamic.status();
        ExpectSameFilterResult(fixed->base, dynamic->base);
        ExpectSameBits(fixed->lambda, dynamic->lambda, "lambda");
        ExpectSameBits(fixed->lambda_variance, dynamic->lambda_variance,
                       "lambda_variance");
        ExpectSameBits(fixed->profiled_log_likelihood,
                       dynamic->profiled_log_likelihood,
                       "profiled_log_likelihood");
      }
    }
  }
}

TEST(KalmanFixedTest, MultiRegressorBitExactAcrossDims) {
  for (int dim : {1, 5, 12}) {
    for (const StateSpaceModel& model : ModelsForDim(dim)) {
      for (bool with_gaps : {false, true}) {
        const auto series = MakeSeries(43, 59 + dim, with_gaps);
        const int n = static_cast<int>(series.size());
        const std::vector<std::vector<double>> regressors = {
            InterventionRegressor({15, InterventionKind::kSlopeShift}, n),
            InterventionRegressor({28, InterventionKind::kLevelShift}, n)};
        auto fixed = RunFilterWithRegressorsFixed(model, series, regressors);
        auto dynamic = RunFilterWithRegressors(model, series, regressors);
        ASSERT_TRUE(fixed.ok()) << fixed.status();
        ASSERT_TRUE(dynamic.ok()) << dynamic.status();
        ExpectSameFilterResult(fixed->base, dynamic->base);
        ExpectSameBits(fixed->lambdas, dynamic->lambdas, "lambdas");
        ExpectSameBits(fixed->profiled_log_likelihood,
                       dynamic->profiled_log_likelihood,
                       "profiled_log_likelihood");

        // Zero regressors degenerates to the plain filter in both paths.
        auto fixed_empty = RunFilterWithRegressorsFixed(model, series, {});
        auto dynamic_empty = RunFilterWithRegressors(model, series, {});
        ASSERT_TRUE(fixed_empty.ok()) << fixed_empty.status();
        ASSERT_TRUE(dynamic_empty.ok()) << dynamic_empty.status();
        EXPECT_TRUE(fixed_empty->lambdas.empty());
        ExpectSameBits(fixed_empty->profiled_log_likelihood,
                       dynamic_empty->profiled_log_likelihood,
                       "profiled_log_likelihood (no regressors)");
      }
    }
  }
}

TEST(KalmanFixedTest, DispatchPicksTheKernelFromTheStateDimension) {
  // A dimension with a compiled kernel dispatches to it.
  const StateSpaceModel supported = ModelForDim(12);
  const auto series = MakeSeries(43, 71);
  auto dispatched = DispatchFilter(supported, series);
  auto fixed = RunFilterFixed(supported, series);
  auto dynamic = RunFilter(supported, series);
  ASSERT_TRUE(dispatched.ok() && fixed.ok() && dynamic.ok());
  ExpectSameFilterResult(*dispatched, *fixed);
  ExpectSameFilterResult(*dispatched, *dynamic);

  // A 3-state model (level + one trig harmonic + Nyquist) has no
  // compiled kernel: dispatch falls back to the dynamic path, while the
  // fixed path fails loudly instead of silently falling back.
  StructuralSpec odd = SpecForDim(5);
  odd.harmonics = 1;
  auto odd_model = BuildStructuralModel(odd, StructuralVariances{});
  ASSERT_TRUE(odd_model.ok()) << odd_model.status();
  ASSERT_FALSE(HasFixedKernel(odd_model->state_dim()));
  auto odd_dispatched = DispatchFilter(*odd_model, series);
  auto odd_dynamic = RunFilter(*odd_model, series);
  ASSERT_TRUE(odd_dispatched.ok() && odd_dynamic.ok());
  ExpectSameFilterResult(*odd_dispatched, *odd_dynamic);
  auto rejected = RunFilterFixed(*odd_model, series);
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);

  // A fit on that spec runs on the dynamic path.
  auto fitted = FitStructuralModel(MakeSeries(43, 101), odd);
  EXPECT_TRUE(fitted.ok()) << fitted.status();
}

TEST(KalmanFixedTest, FitOptionsValidateReportsFieldPaths) {
  FitOptions options;
  EXPECT_TRUE(options.Validate().ok());

  options.restarts = -1;
  auto invalid = options.Validate();
  EXPECT_FALSE(invalid.ok());
  EXPECT_NE(invalid.message().find("fit.restarts"), std::string::npos);

  options = FitOptions{};
  options.optimizer.max_evaluations = 0;
  EXPECT_NE(options.Validate().message().find(
                "fit.optimizer.max_evaluations"),
            std::string::npos);

  options = FitOptions{};
  options.optimizer.tolerance = 0.0;
  EXPECT_NE(options.Validate().message().find("fit.optimizer.tolerance"),
            std::string::npos);

  options = FitOptions{};
  options.optimizer.initial_step = -0.5;
  EXPECT_NE(options.Validate().message().find("fit.optimizer.initial_step"),
            std::string::npos);
}

}  // namespace
}  // namespace mic::ssm
