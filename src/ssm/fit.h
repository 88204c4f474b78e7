// Maximum-likelihood fitting of structural models: Nelder-Mead over the
// log-variance hyperparameters around the Kalman filter, with the
// intervention coefficient lambda profiled out by innovation-space GLS,
// plus the AIC used for model comparison and change point selection
// (§V-B).
//
// AIC convention (after Commandeur & Koopman):
//   AIC = -2 logL + 2 (d + w + [intervention])
// with d = diffusely initialized states and w = estimated variances.
// Because lambda is profiled on exactly the likelihood terms the base
// model uses, AICs of all candidate change points and the
// no-intervention model are directly comparable.

#ifndef MICTREND_SSM_FIT_H_
#define MICTREND_SSM_FIT_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "ssm/kalman.h"
#include "ssm/optimizer.h"
#include "ssm/structural.h"

namespace mic::obs {
class MetricsRegistry;
}  // namespace mic::obs

namespace mic::ssm {

/// One options struct for the ssm::Fit* entry points, mirroring the
/// layered trend::PipelineConfig idiom: every knob is a named field with
/// a Validate() that reports the exact field path. Every Kalman pass of
/// a fit runs through the Dispatch* entry points of kalman_fixed.h,
/// which pick the kernel from the state dimension.
struct FitOptions {
  NelderMeadOptions optimizer;
  /// Nelder-Mead restarts from the incumbent optimum with a halved
  /// initial step; cheap insurance against premature simplex collapse
  /// on flat likelihood ridges.
  int restarts = 1;
  /// Optional metrics sink (not owned; null disables). Each successful
  /// fit adds to ssm.fits, ssm.nelder_mead_evaluations, and
  /// ssm.kalman_passes — all pure functions of the input series, so
  /// they stay bit-identical at any thread count.
  obs::MetricsRegistry* metrics = nullptr;

  /// Field-path diagnostics in the PipelineConfig style
  /// ("fit.restarts must be >= 0").
  Status Validate() const;
};

/// A fitted structural model.
struct FittedStructuralModel {
  StructuralSpec spec;
  StructuralVariances variances;
  /// Base (level + seasonal) model bound to the ML variances.
  StateSpaceModel model;
  /// GLS estimates of the intervention scales, aligned with
  /// spec.interventions (empty when no intervention).
  std::vector<double> lambdas;
  /// Convenience: the first intervention's scale (0 when none).
  double lambda = 0.0;
  /// Sampling variance of the single lambda (meaningful only for
  /// one-intervention specs; infinity otherwise).
  double lambda_variance = 0.0;
  double log_likelihood = 0.0;
  double aic = 0.0;
  int optimizer_evaluations = 0;
  /// Kalman filter passes this fit ran (optimizer evaluations plus the
  /// final lambda pass); what ssm.kalman_passes aggregates.
  std::uint64_t kalman_passes = 0;
};

/// Fits `spec` to `series` by maximum likelihood. Requires at least
/// spec.NumDiffuseStates() + 2 observations, and change_point (if any)
/// inside the series.
Result<FittedStructuralModel> FitStructuralModel(
    const std::vector<double>& series, const StructuralSpec& spec,
    const FitOptions& options = {});

/// AIC of a fitted model given the spec's parameter accounting.
double StructuralAic(double log_likelihood, const StructuralSpec& spec);

/// Mean forecasts `horizon` steps ahead: the base components are
/// forecast by the Kalman filter and the intervention contribution
/// lambda * w_t is extended deterministically.
Result<ForecastResult> ForecastStructural(
    const FittedStructuralModel& fitted, const std::vector<double>& series,
    int horizon);

}  // namespace mic::ssm

#endif  // MICTREND_SSM_FIT_H_
