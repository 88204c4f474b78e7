// google-benchmark microbenchmarks of the performance-critical kernels:
// the Kalman filter (the inner loop of every fit, on the dynamic and the
// fixed-dimension kernels), the structural model fit, one EM pass of the
// medication model, ARIMA selection, and claim generation throughput.

#include <benchmark/benchmark.h>

#include <string>

#include "arima/arima.h"
#include "common/rng.h"
#include "medmodel/medication_model.h"
#include "ssm/changepoint.h"
#include "ssm/fit.h"
#include "ssm/kalman.h"
#include "ssm/kalman_fixed.h"
#include "synth/generator.h"
#include "synth/scenario.h"

namespace mic {
namespace {

std::vector<double> MakeSeries(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(n);
  for (int t = 0; t < n; ++t) {
    x[t] = 10.0 + 3.0 * std::sin(2.0 * 3.14159265 * t / 12.0) +
           rng.NextGaussian(0.0, 0.5) + (t >= 20 ? 0.4 * (t - 19) : 0.0);
  }
  return x;
}

void BM_KalmanFilterLocalLevel(benchmark::State& state) {
  const auto series = MakeSeries(static_cast<int>(state.range(0)), 1);
  ssm::StructuralSpec spec;
  auto model = ssm::BuildStructuralModel(spec, {1.0, 0.1, 0.0});
  for (auto _ : state) {
    auto result = ssm::RunFilter(*model, series);
    benchmark::DoNotOptimize(result->log_likelihood);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_KalmanFilterLocalLevel)->Arg(43)->Arg(120)->Arg(480);

void BM_KalmanFilterSeasonal(benchmark::State& state) {
  const auto series = MakeSeries(static_cast<int>(state.range(0)), 2);
  ssm::StructuralSpec spec;
  spec.seasonal = true;
  auto model = ssm::BuildStructuralModel(spec, {1.0, 0.1, 0.01});
  for (auto _ : state) {
    auto result = ssm::RunFilter(*model, series);
    benchmark::DoNotOptimize(result->log_likelihood);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_KalmanFilterSeasonal)->Arg(43)->Arg(120);

void BM_KalmanFilterWithRegression(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto series = MakeSeries(n, 3);
  const auto regressor = ssm::SlopeShiftRegressor(n / 2, n);
  ssm::StructuralSpec spec;
  spec.seasonal = true;
  auto model = ssm::BuildStructuralModel(spec, {1.0, 0.1, 0.01});
  for (auto _ : state) {
    auto result = ssm::RunFilterWithRegression(*model, series, regressor);
    benchmark::DoNotOptimize(result->profiled_log_likelihood);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_KalmanFilterWithRegression)->Arg(43)->Arg(120);

void BM_KalmanFilterSteadyStateOff(benchmark::State& state) {
  // The same seasonal filter with the steady-state shortcut disabled:
  // the gap to BM_KalmanFilterSeasonal is the shortcut's payoff.
  const auto series = MakeSeries(static_cast<int>(state.range(0)), 2);
  ssm::StructuralSpec spec;
  spec.seasonal = true;
  auto model = ssm::BuildStructuralModel(spec, {1.0, 0.1, 0.01});
  ssm::KalmanOptions options;
  options.allow_steady_state = false;
  for (auto _ : state) {
    auto result = ssm::RunFilter(*model, series, options);
    benchmark::DoNotOptimize(result->log_likelihood);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_KalmanFilterSteadyStateOff)->Arg(43)->Arg(480);

void BM_KalmanFilterMultiRegressor(benchmark::State& state) {
  const int n = 43;
  const auto series = MakeSeries(n, 3);
  std::vector<std::vector<double>> regressors;
  for (int k = 0; k < state.range(0); ++k) {
    regressors.push_back(ssm::InterventionRegressor(
        {5 + 7 * static_cast<int>(k), ssm::InterventionKind::kSlopeShift},
        n));
  }
  ssm::StructuralSpec spec;
  spec.seasonal = true;
  auto model = ssm::BuildStructuralModel(spec, {1.0, 0.1, 0.01});
  for (auto _ : state) {
    auto result =
        ssm::RunFilterWithRegressors(*model, series, regressors);
    benchmark::DoNotOptimize(result->profiled_log_likelihood);
  }
}
BENCHMARK(BM_KalmanFilterMultiRegressor)->Arg(1)->Arg(3)->Arg(5);

void BM_RegressionFilterKernel(benchmark::State& state) {
  // One 43-step regression pass through the kernel dispatcher, the call
  // every Nelder-Mead evaluation of a one-intervention fit makes, for
  // each state dimension with a fixed kernel: 1 (level), 5 (level + two
  // trig harmonics), 12 (level + period-12 dummy seasonal). The second
  // argument picks the kernel: 0 dynamic, 1 fixed.
  const int dim = static_cast<int>(state.range(0));
  const ssm::KalmanKernel kernel = state.range(1) == 0
                                       ? ssm::KalmanKernel::kDynamic
                                       : ssm::KalmanKernel::kFixed;
  const int n = 43;
  const auto series = MakeSeries(n, 3);
  const auto regressor = ssm::SlopeShiftRegressor(n / 2, n);
  ssm::StructuralSpec spec;
  spec.seasonal = dim > 1;
  if (dim == 5) spec.seasonal_form = ssm::SeasonalForm::kTrigonometric;
  auto model = ssm::BuildStructuralModel(spec, {1.0, 0.1, 0.01});
  for (auto _ : state) {
    auto result = ssm::RunFilterWithRegressionKernel(kernel, *model, series,
                                                     regressor);
    benchmark::DoNotOptimize(result->profiled_log_likelihood);
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(std::string(ssm::KalmanKernelName(kernel)));
}
BENCHMARK(BM_RegressionFilterKernel)
    ->ArgNames({"dim", "fixed"})
    ->ArgsProduct({{1, 5, 12}, {0, 1}});

void BM_StructuralFitSeasonal(benchmark::State& state) {
  const auto series = MakeSeries(43, 4);
  ssm::StructuralSpec spec;
  spec.seasonal = true;
  for (auto _ : state) {
    auto fitted = ssm::FitStructuralModel(series, spec);
    benchmark::DoNotOptimize(fitted->aic);
  }
}
BENCHMARK(BM_StructuralFitSeasonal);

void BM_ChangePointExact(benchmark::State& state) {
  const auto series = MakeSeries(43, 5);
  ssm::ChangePointOptions options;
  options.seasonal = true;
  options.fit.optimizer.max_evaluations = 160;
  for (auto _ : state) {
    ssm::ChangePointDetector detector(series, options);
    auto result = detector.DetectExact();
    benchmark::DoNotOptimize(result->best_aic);
  }
}
BENCHMARK(BM_ChangePointExact)->Unit(benchmark::kMillisecond);

void BM_ChangePointApproximate(benchmark::State& state) {
  const auto series = MakeSeries(43, 5);
  ssm::ChangePointOptions options;
  options.seasonal = true;
  options.fit.optimizer.max_evaluations = 160;
  for (auto _ : state) {
    ssm::ChangePointDetector detector(series, options);
    auto result = detector.DetectApproximate();
    benchmark::DoNotOptimize(result->best_aic);
  }
}
BENCHMARK(BM_ChangePointApproximate)->Unit(benchmark::kMillisecond);

void BM_ArimaSelect(benchmark::State& state) {
  const auto series = MakeSeries(43, 6);
  for (auto _ : state) {
    auto fitted = arima::SelectArima(series);
    benchmark::DoNotOptimize(fitted->aic);
  }
}
BENCHMARK(BM_ArimaSelect)->Unit(benchmark::kMillisecond);

void BM_MedicationModelFit(benchmark::State& state) {
  auto world = synth::World::Create(
      synth::MakeTinyWorldConfig(3, 99));
  synth::ClaimGenerator generator(&*world);
  auto data = generator.Generate();
  const MonthlyDataset& month = data->corpus.month(0);
  for (auto _ : state) {
    auto model = medmodel::MedicationModel::Fit(month);
    benchmark::DoNotOptimize((*model)->fit_stats().final_log_likelihood);
  }
  state.SetItemsProcessed(state.iterations() * month.size());
}
BENCHMARK(BM_MedicationModelFit)->Unit(benchmark::kMillisecond);

void BM_ClaimGeneration(benchmark::State& state) {
  auto world = synth::World::Create(synth::MakeTinyWorldConfig(12, 7));
  synth::ClaimGenerator generator(&*world);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    auto data = generator.Generate(seed++);
    benchmark::DoNotOptimize(data->corpus.TotalRecords());
  }
  state.SetItemsProcessed(state.iterations() * 12);
}
BENCHMARK(BM_ClaimGeneration)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace mic

BENCHMARK_MAIN();
