#include "ssm/fit.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.h"
#include "ssm/kalman_fixed.h"
#include "stats/metrics.h"

namespace mic::ssm {
namespace {

// Builds variances from the optimizer's log-variance point.
StructuralVariances VariancesFromPoint(const std::vector<double>& point,
                                       bool seasonal) {
  StructuralVariances variances;
  variances.observation = std::exp(point[0]);
  variances.level = std::exp(point[1]);
  variances.seasonal = seasonal ? std::exp(point[2]) : 0.0;
  return variances;
}

std::vector<std::vector<double>> BuildRegressors(
    const StructuralSpec& spec, int length) {
  std::vector<std::vector<double>> regressors;
  regressors.reserve(spec.interventions.size());
  for (const Intervention& intervention : spec.interventions) {
    regressors.push_back(InterventionRegressor(intervention, length));
  }
  return regressors;
}

}  // namespace

Status FitOptions::Validate() const {
  if (restarts < 0) {
    return Status::InvalidArgument("fit.restarts must be >= 0");
  }
  if (optimizer.max_evaluations < 1) {
    return Status::InvalidArgument(
        "fit.optimizer.max_evaluations must be >= 1");
  }
  if (!(optimizer.tolerance > 0.0)) {
    return Status::InvalidArgument("fit.optimizer.tolerance must be > 0");
  }
  if (!(optimizer.initial_step > 0.0)) {
    return Status::InvalidArgument(
        "fit.optimizer.initial_step must be > 0");
  }
  return Status::OK();
}

double StructuralAic(double log_likelihood, const StructuralSpec& spec) {
  return -2.0 * log_likelihood +
         2.0 * static_cast<double>(spec.TotalParameters());
}

Result<FittedStructuralModel> FitStructuralModel(
    const std::vector<double>& series, const StructuralSpec& spec,
    const FitOptions& options) {
  MIC_RETURN_IF_ERROR(options.Validate());
  const int n = static_cast<int>(series.size());
  if (n < spec.NumDiffuseStates() + 2) {
    return Status::InvalidArgument(
        "series too short for spec " + spec.ToString() + ": " +
        std::to_string(n) + " observations");
  }
  for (const Intervention& intervention : spec.interventions) {
    if (intervention.change_point < 0 || intervention.change_point >= n) {
      return Status::InvalidArgument("change point outside the series");
    }
  }

  const std::vector<std::vector<double>> regressors =
      BuildRegressors(spec, n);
  const bool single = regressors.size() == 1;

  // Kalman passes are tallied locally (one fit runs serially) and folded
  // into the registry once at the end, keeping the hot loop allocation-
  // and lock-free.
  std::uint64_t kalman_passes = 0;

  // Scale-aware starting point for the log-variances.
  double variance = 0.0;
  {
    const double sd = stats::StdDev(series);
    variance = std::max(sd * sd, 1e-8);
  }
  std::vector<double> start;
  start.push_back(std::log(0.5 * variance));   // observation
  start.push_back(std::log(0.1 * variance));   // level
  if (spec.seasonal) {
    start.push_back(std::log(0.05 * variance));  // seasonal
  }

  auto log_likelihood_at =
      [&](const StructuralVariances& variances) -> Result<double> {
    ++kalman_passes;
    MIC_ASSIGN_OR_RETURN(StateSpaceModel model,
                         BuildStructuralModel(spec, variances));
    if (regressors.empty()) {
      MIC_ASSIGN_OR_RETURN(FilterResult filtered,
                           DispatchFilter(model, series));
      return filtered.log_likelihood;
    }
    if (single) {
      MIC_ASSIGN_OR_RETURN(
          RegressionFilterResult filtered,
          DispatchFilterWithRegression(model, series, regressors.front()));
      return filtered.profiled_log_likelihood;
    }
    MIC_ASSIGN_OR_RETURN(
        MultiRegressionFilterResult filtered,
        DispatchFilterWithRegressors(model, series, regressors));
    return filtered.profiled_log_likelihood;
  };

  auto objective = [&](const std::vector<double>& point) -> double {
    // Guard against variance over/underflow driving the filter unstable.
    for (double value : point) {
      if (value > 50.0 || value < -50.0) {
        return std::numeric_limits<double>::infinity();
      }
    }
    auto log_likelihood =
        log_likelihood_at(VariancesFromPoint(point, spec.seasonal));
    if (!log_likelihood.ok()) {
      return std::numeric_limits<double>::infinity();
    }
    return -*log_likelihood;
  };

  MIC_ASSIGN_OR_RETURN(NelderMeadResult optimum,
                       MinimizeNelderMead(objective, start,
                                          options.optimizer));
  for (int restart = 0; restart < options.restarts; ++restart) {
    NelderMeadOptions restart_options = options.optimizer;
    restart_options.initial_step = options.optimizer.initial_step *
                                   0.5 / static_cast<double>(restart + 1);
    MIC_ASSIGN_OR_RETURN(
        NelderMeadResult again,
        MinimizeNelderMead(objective, optimum.best_point,
                           restart_options));
    again.evaluations += optimum.evaluations;
    if (again.best_value < optimum.best_value) {
      optimum = std::move(again);
    } else {
      optimum.evaluations = again.evaluations;
      break;  // Converged: the restart found nothing better.
    }
  }
  if (!std::isfinite(optimum.best_value)) {
    return Status::NumericError("likelihood optimization failed for " +
                                spec.ToString());
  }

  FittedStructuralModel fitted;
  fitted.spec = spec;
  fitted.variances = VariancesFromPoint(optimum.best_point, spec.seasonal);
  MIC_ASSIGN_OR_RETURN(fitted.model,
                       BuildStructuralModel(spec, fitted.variances));
  fitted.log_likelihood = -optimum.best_value;
  fitted.lambda_variance = std::numeric_limits<double>::infinity();
  if (single) {
    ++kalman_passes;
    MIC_ASSIGN_OR_RETURN(RegressionFilterResult filtered,
                         DispatchFilterWithRegression(fitted.model, series,
                                                      regressors.front()));
    fitted.lambdas = {filtered.lambda};
    fitted.lambda = filtered.lambda;
    fitted.lambda_variance = filtered.lambda_variance;
  } else if (!regressors.empty()) {
    ++kalman_passes;
    MIC_ASSIGN_OR_RETURN(
        MultiRegressionFilterResult filtered,
        DispatchFilterWithRegressors(fitted.model, series, regressors));
    fitted.lambdas = filtered.lambdas;
    fitted.lambda = filtered.lambdas.empty() ? 0.0 : filtered.lambdas[0];
  }
  fitted.aic = StructuralAic(fitted.log_likelihood, spec);
  fitted.optimizer_evaluations = optimum.evaluations;
  fitted.kalman_passes = kalman_passes;
  if (options.metrics != nullptr) {
    obs::Increment(obs::GetCounter(options.metrics, "ssm.fits"));
    obs::Increment(
        obs::GetCounter(options.metrics, "ssm.nelder_mead_evaluations"),
        static_cast<std::uint64_t>(optimum.evaluations));
    obs::Increment(obs::GetCounter(options.metrics, "ssm.kalman_passes"),
                   kalman_passes);
  }
  return fitted;
}

Result<ForecastResult> ForecastStructural(
    const FittedStructuralModel& fitted, const std::vector<double>& series,
    int horizon) {
  if (horizon <= 0) {
    return Status::InvalidArgument("horizon must be positive");
  }
  const int n = static_cast<int>(series.size());
  if (!fitted.spec.has_intervention()) {
    return ForecastAhead(fitted.model, series, horizon);
  }
  // Remove the intervention contributions, forecast the base
  // components, then extend sum_k lambda_k w_kt over the horizon.
  const std::vector<std::vector<double>> regressors =
      BuildRegressors(fitted.spec, n + horizon);
  std::vector<double> adjusted(series);
  for (std::size_t k = 0; k < regressors.size(); ++k) {
    const double lambda =
        k < fitted.lambdas.size() ? fitted.lambdas[k] : 0.0;
    for (int t = 0; t < n; ++t) adjusted[t] -= lambda * regressors[k][t];
  }
  MIC_ASSIGN_OR_RETURN(ForecastResult base,
                       ForecastAhead(fitted.model, adjusted, horizon));
  for (int h = 0; h < horizon; ++h) {
    for (std::size_t k = 0; k < regressors.size(); ++k) {
      const double lambda =
          k < fitted.lambdas.size() ? fitted.lambdas[k] : 0.0;
      base.mean[h] += lambda * regressors[k][n + h];
    }
    // Single-intervention case: carry the lambda sampling uncertainty.
    if (regressors.size() == 1 && std::isfinite(fitted.lambda_variance)) {
      base.variance[h] += fitted.lambda_variance * regressors[0][n + h] *
                          regressors[0][n + h];
    }
  }
  return base;
}

}  // namespace mic::ssm
