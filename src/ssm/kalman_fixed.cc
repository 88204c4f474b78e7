#include "ssm/kalman_fixed.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <string>

#include "la/matrix.h"

namespace mic::ssm {
namespace {

constexpr double kLogTwoPi = 1.8378770664093453;

bool IsMissing(double x) { return std::isnan(x); }

// --- Flat-array kernels. ----------------------------------------------
//
// MatVec, Dot, Symmetrize and MaxAbs reproduce their la:: loop bodies
// verbatim. Products with T go through FixedModel's index of T's
// nonzeros instead (kalman_fixed.h says why that is bit-identical).

template <int Dim>
inline void MatVec(const double* m, const double* v, double* out) {
  for (int r = 0; r < Dim; ++r) {
    double total = 0.0;
    for (int c = 0; c < Dim; ++c) total += m[r * Dim + c] * v[c];
    out[r] = total;
  }
}

template <int Dim>
inline double Dot(const double* a, const double* b) {
  double total = 0.0;
  for (int i = 0; i < Dim; ++i) total += a[i] * b[i];
  return total;
}

template <int Dim>
inline void Symmetrize(double* m) {
  for (int r = 0; r < Dim; ++r) {
    for (int c = r + 1; c < Dim; ++c) {
      const double avg = 0.5 * (m[r * Dim + c] + m[c * Dim + r]);
      m[r * Dim + c] = avg;
      m[c * Dim + r] = avg;
    }
  }
}

template <int Dim>
inline double MaxAbs(const double* m) {
  double best = 0.0;
  for (int i = 0; i < Dim * Dim; ++i) {
    best = std::max(best, std::fabs(m[i]));
  }
  return best;
}

// Per-pass constant data copied to flat storage once. RQR' is produced
// by the very la:: calls the dynamic setup uses, so its bits match by
// construction. T is kept as its nonzeros only, row by row in ascending
// column order: row r holds entries [row_begin[r], row_begin[r + 1]) of
// col/value.
template <int Dim>
struct FixedModel {
  int row_begin[Dim + 1] = {};
  int col[Dim * Dim] = {};
  double value[Dim * Dim] = {};
  double rqr[Dim * Dim] = {};
  double z_base[Dim] = {};
  bool has_time_varying = false;

  explicit FixedModel(const StateSpaceModel& model) {
    la::Matrix rq, selection_t, rqr_m;
    la::MultiplyInto(model.selection, model.state_noise, &rq);
    la::TransposeInto(model.selection, &selection_t);
    la::MultiplyInto(rq, selection_t, &rqr_m);
    int nonzeros = 0;
    for (int r = 0; r < Dim; ++r) {
      row_begin[r] = nonzeros;
      for (int c = 0; c < Dim; ++c) {
        rqr[r * Dim + c] = rqr_m(r, c);
        if (model.transition(r, c) != 0.0) {
          col[nonzeros] = c;
          value[nonzeros++] = model.transition(r, c);
        }
      }
    }
    row_begin[Dim] = nonzeros;
    for (int i = 0; i < Dim; ++i) z_base[i] = model.observation[i];
    has_time_varying = !model.time_varying.empty();
  }

  // Z_t into `z` (same values as ObservationVectorInto).
  void ObservationAt(const StateSpaceModel& model, std::size_t t,
                     double* z) const {
    for (int i = 0; i < Dim; ++i) z[i] = z_base[i];
    if (!has_time_varying) return;
    for (const TimeVaryingObservation& entry : model.time_varying) {
      if (t < entry.values.size()) {
        z[entry.state_index] = entry.values[t];
      }
    }
  }

  // out <- T * v; `out` must not alias `v`.
  void TimesVector(const double* v, double* out) const {
    for (int r = 0; r < Dim; ++r) {
      double total = 0.0;
      for (int e = row_begin[r]; e < row_begin[r + 1]; ++e) {
        total += value[e] * v[col[e]];
      }
      out[r] = total;
    }
  }

  // out <- T * m for a row-major Dim x Dim m: each nonzero T(r, k) adds
  // T(r, k) times row k of m to row r of out. `out` must not alias `m`.
  void TimesMatrix(const double* m, double* out) const {
    for (int r = 0; r < Dim; ++r) {
      double* out_row = out + r * Dim;
      for (int c = 0; c < Dim; ++c) out_row[c] = 0.0;
      for (int e = row_begin[r]; e < row_begin[r + 1]; ++e) {
        const double t_rk = value[e];
        const double* m_row = m + col[e] * Dim;
        for (int c = 0; c < Dim; ++c) out_row[c] += t_rk * m_row[c];
      }
    }
  }
};

// next <- T * source * T' + rqr, symmetrized: the dynamic path's
// AdvanceCovariance before its buffer swap. The right product is formed
// as (T * (T * source)')' so that both products take TimesMatrix's
// row-axpy shape; entry (r, c) still sums T(c, k) * (T * source)(r, k)
// over ascending k. `tmp` is scratch; `source` is read before `next` is
// written, so it may be `next` itself.
template <int Dim>
inline void PredictCovariance(const FixedModel<Dim>& fm,
                              const double* source, double* tmp,
                              double* next) {
  fm.TimesMatrix(source, tmp);
  for (int r = 0; r < Dim; ++r) {
    for (int c = 0; c < Dim; ++c) next[c * Dim + r] = tmp[r * Dim + c];
  }
  fm.TimesMatrix(next, tmp);
  for (int r = 0; r < Dim; ++r) {
    for (int c = 0; c < Dim; ++c) {
      next[r * Dim + c] = tmp[c * Dim + r] + fm.rqr[r * Dim + c];
    }
  }
  Symmetrize<Dim>(next);
}

template <int Dim>
la::Vector ToVector(const double* v) {
  la::Vector out(Dim);
  for (int i = 0; i < Dim; ++i) out[i] = v[i];
  return out;
}

template <int Dim>
la::Matrix ToMatrix(const double* m) {
  la::Matrix out(Dim, Dim);
  for (int r = 0; r < Dim; ++r) {
    for (int c = 0; c < Dim; ++c) out(r, c) = m[r * Dim + c];
  }
  return out;
}

// --- Fixed twin of RunFilter (see kalman.cc for the annotated form; the
// control flow here matches it statement for statement). --------------
template <int Dim>
Result<FilterResult> RunFilterImpl(const StateSpaceModel& model,
                                   const std::vector<double>& observations,
                                   const KalmanOptions& options) {
  MIC_RETURN_IF_ERROR(model.Validate());
  const std::size_t n = observations.size();

  FilterResult result;
  result.predictions.resize(n);
  result.prediction_variances.resize(n);
  result.innovations.resize(n);
  if (options.store_states) {
    result.predicted_states.reserve(n);
    result.predicted_covariances.reserve(n);
  }

  const FixedModel<Dim> fm(model);
  double z[Dim] = {};
  double state[Dim] = {};
  double tmp_vec[Dim] = {};
  double filtered[Dim] = {};
  double pz[Dim] = {};
  double steady_pz[Dim] = {};
  double cov[Dim * Dim] = {};
  double filtered_cov[Dim * Dim] = {};
  double tmp_mat[Dim * Dim] = {};
  double next_cov[Dim * Dim] = {};
  for (int i = 0; i < Dim; ++i) state[i] = model.initial_state[i];
  for (int r = 0; r < Dim; ++r) {
    for (int c = 0; c < Dim; ++c) {
      cov[r * Dim + c] = model.initial_covariance(r, c);
    }
  }

  int skipped_diffuse = 0;
  double log_likelihood = 0.0;
  int effective = 0;

  const bool may_go_steady = options.allow_steady_state &&
                             model.time_varying.empty() &&
                             !options.store_states &&
                             n >= static_cast<std::size_t>(Dim * Dim) + 20;
  bool steady = false;
  double steady_variance = 0.0;

  for (std::size_t t = 0; t < n; ++t) {
    fm.ObservationAt(model, t, z);
    if (options.store_states) {
      result.predicted_states.push_back(ToVector<Dim>(state));
      result.predicted_covariances.push_back(ToMatrix<Dim>(cov));
    }

    if (!steady) MatVec<Dim>(cov, z, pz);
    const double* pz_sel = steady ? steady_pz : pz;
    const double prediction = Dot<Dim>(z, state);
    const double prediction_variance =
        steady ? steady_variance
               : Dot<Dim>(z, pz_sel) + model.observation_variance;
    result.predictions[t] = prediction;
    result.prediction_variances[t] = prediction_variance;

    const double x = observations[t];
    if (IsMissing(x)) {
      result.innovations[t] = std::numeric_limits<double>::quiet_NaN();
      fm.TimesVector(state, tmp_vec);
      for (int i = 0; i < Dim; ++i) state[i] = tmp_vec[i];
      if (steady) {
        steady = false;
      }
      PredictCovariance<Dim>(fm, cov, tmp_mat, cov);
      continue;
    }

    if (!(prediction_variance > 0.0) ||
        !std::isfinite(prediction_variance)) {
      return Status::NumericError(
          "non-positive prediction variance at t=" + std::to_string(t));
    }

    const double innovation = x - prediction;
    result.innovations[t] = innovation;

    if (prediction_variance > options.diffuse_variance_threshold) {
      ++skipped_diffuse;
    } else {
      log_likelihood -=
          0.5 * (kLogTwoPi + std::log(prediction_variance) +
                 innovation * innovation / prediction_variance);
      ++effective;
    }

    const double gain_scale = innovation / prediction_variance;
    for (int i = 0; i < Dim; ++i) {
      filtered[i] = state[i] + pz_sel[i] * gain_scale;
    }
    fm.TimesVector(filtered, state);
    if (steady) continue;  // Covariance frozen.

    for (int r = 0; r < Dim; ++r) {
      for (int c = 0; c < Dim; ++c) {
        filtered_cov[r * Dim + c] =
            cov[r * Dim + c] - pz[r] * pz[c] / prediction_variance;
      }
    }
    PredictCovariance<Dim>(fm, filtered_cov, tmp_mat, next_cov);
    if (may_go_steady) {
      double max_change = 0.0;
      for (int r = 0; r < Dim; ++r) {
        for (int c = 0; c < Dim; ++c) {
          max_change = std::max(
              max_change,
              std::fabs(next_cov[r * Dim + c] - cov[r * Dim + c]));
        }
      }
      const double scale = std::max(MaxAbs<Dim>(cov), 1e-300);
      if (max_change <= options.steady_state_tolerance * scale) {
        steady = true;
        MatVec<Dim>(next_cov, z, steady_pz);
        steady_variance =
            Dot<Dim>(z, steady_pz) + model.observation_variance;
      }
    }
    for (int i = 0; i < Dim * Dim; ++i) cov[i] = next_cov[i];
  }

  result.log_likelihood = log_likelihood;
  result.effective_observations = effective;
  result.skipped_diffuse = skipped_diffuse;
  result.final_state = ToVector<Dim>(state);
  result.final_covariance = ToMatrix<Dim>(cov);
  return result;
}

// --- Fixed twin of RunFilterWithRegression. --------------------------
template <int Dim>
Result<RegressionFilterResult> RunRegressionImpl(
    const StateSpaceModel& model, const std::vector<double>& observations,
    const std::vector<double>& regressor, const KalmanOptions& options) {
  if (regressor.size() < observations.size()) {
    return Status::InvalidArgument(
        "regressor shorter than the observations");
  }
  MIC_RETURN_IF_ERROR(model.Validate());
  const std::size_t n = observations.size();

  RegressionFilterResult result;
  FilterResult& base = result.base;
  base.predictions.resize(n);
  base.prediction_variances.resize(n);
  base.innovations.resize(n);
  if (options.store_states) {
    base.predicted_states.reserve(n);
    base.predicted_covariances.reserve(n);
  }

  const FixedModel<Dim> fm(model);
  double z[Dim] = {};
  double state[Dim] = {};
  double state_aux[Dim] = {};
  double tmp_vec[Dim] = {};
  double filtered[Dim] = {};
  double filtered_aux[Dim] = {};
  double pz[Dim] = {};
  double cov[Dim * Dim] = {};
  double filtered_cov[Dim * Dim] = {};
  double tmp_mat[Dim * Dim] = {};
  for (int i = 0; i < Dim; ++i) state[i] = model.initial_state[i];
  for (int r = 0; r < Dim; ++r) {
    for (int c = 0; c < Dim; ++c) {
      cov[r * Dim + c] = model.initial_covariance(r, c);
    }
  }

  double log_likelihood = 0.0;
  int effective = 0;
  int skipped_diffuse = 0;
  double s_ww = 0.0;
  double s_wx = 0.0;

  for (std::size_t t = 0; t < n; ++t) {
    fm.ObservationAt(model, t, z);
    if (options.store_states) {
      base.predicted_states.push_back(ToVector<Dim>(state));
      base.predicted_covariances.push_back(ToMatrix<Dim>(cov));
    }

    MatVec<Dim>(cov, z, pz);
    const double prediction_x = Dot<Dim>(z, state);
    const double prediction_variance =
        Dot<Dim>(z, pz) + model.observation_variance;
    base.predictions[t] = prediction_x;
    base.prediction_variances[t] = prediction_variance;

    const double x = observations[t];
    if (IsMissing(x)) {
      base.innovations[t] = std::numeric_limits<double>::quiet_NaN();
      fm.TimesVector(state, tmp_vec);
      for (int i = 0; i < Dim; ++i) state[i] = tmp_vec[i];
      fm.TimesVector(state_aux, tmp_vec);
      for (int i = 0; i < Dim; ++i) state_aux[i] = tmp_vec[i];
      PredictCovariance<Dim>(fm, cov, tmp_mat, cov);
      continue;
    }
    if (!(prediction_variance > 0.0) ||
        !std::isfinite(prediction_variance)) {
      return Status::NumericError(
          "non-positive prediction variance at t=" + std::to_string(t));
    }

    const double v_x = x - prediction_x;
    const double v_w = regressor[t] - Dot<Dim>(z, state_aux);
    base.innovations[t] = v_x;

    if (prediction_variance > options.diffuse_variance_threshold) {
      ++skipped_diffuse;
    } else {
      log_likelihood -=
          0.5 * (kLogTwoPi + std::log(prediction_variance) +
                 v_x * v_x / prediction_variance);
      ++effective;
      s_ww += v_w * v_w / prediction_variance;
      s_wx += v_w * v_x / prediction_variance;
    }

    const double gain_x = v_x / prediction_variance;
    const double gain_w = v_w / prediction_variance;
    for (int i = 0; i < Dim; ++i) {
      filtered[i] = state[i] + pz[i] * gain_x;
      filtered_aux[i] = state_aux[i] + pz[i] * gain_w;
    }
    for (int r = 0; r < Dim; ++r) {
      for (int c = 0; c < Dim; ++c) {
        filtered_cov[r * Dim + c] =
            cov[r * Dim + c] - pz[r] * pz[c] / prediction_variance;
      }
    }
    fm.TimesVector(filtered, state);
    fm.TimesVector(filtered_aux, state_aux);
    PredictCovariance<Dim>(fm, filtered_cov, tmp_mat, cov);
  }

  base.log_likelihood = log_likelihood;
  base.effective_observations = effective;
  base.skipped_diffuse = skipped_diffuse;
  base.final_state = ToVector<Dim>(state);
  base.final_covariance = ToMatrix<Dim>(cov);
  if (s_ww > 1e-12) {
    result.identified = true;
    result.lambda = s_wx / s_ww;
    result.lambda_variance = 1.0 / s_ww;
    result.profiled_log_likelihood =
        result.base.log_likelihood + 0.5 * s_wx * s_wx / s_ww;
  } else {
    result.identified = false;
    result.lambda = 0.0;
    result.lambda_variance = std::numeric_limits<double>::infinity();
    result.profiled_log_likelihood = result.base.log_likelihood;
  }
  return result;
}

// --- Fixed twin of RunFilterWithRegressors. --------------------------
template <int Dim>
Result<MultiRegressionFilterResult> RunRegressorsImpl(
    const StateSpaceModel& model, const std::vector<double>& observations,
    const std::vector<std::vector<double>>& regressors,
    const KalmanOptions& options) {
  const std::size_t k = regressors.size();
  for (const auto& regressor : regressors) {
    if (regressor.size() < observations.size()) {
      return Status::InvalidArgument(
          "regressor shorter than the observations");
    }
  }
  MIC_RETURN_IF_ERROR(model.Validate());
  const std::size_t n = observations.size();

  MultiRegressionFilterResult result;
  FilterResult& base = result.base;
  base.predictions.resize(n);
  base.prediction_variances.resize(n);
  base.innovations.resize(n);

  const FixedModel<Dim> fm(model);
  double z[Dim] = {};
  double state[Dim] = {};
  double tmp_vec[Dim] = {};
  double filtered[Dim] = {};
  double pz[Dim] = {};
  double cov[Dim * Dim] = {};
  double filtered_cov[Dim * Dim] = {};
  double tmp_mat[Dim * Dim] = {};
  for (int i = 0; i < Dim; ++i) state[i] = model.initial_state[i];
  for (int r = 0; r < Dim; ++r) {
    for (int c = 0; c < Dim; ++c) {
      cov[r * Dim + c] = model.initial_covariance(r, c);
    }
  }
  // K is a per-call property of the query, so the per-regressor state
  // means stay heap-backed exactly as in the dynamic path.
  std::vector<std::array<double, Dim>> state_w(k);
  for (auto& sw : state_w) sw.fill(0.0);

  double log_likelihood = 0.0;
  int effective = 0;
  int skipped_diffuse = 0;
  la::Matrix s_ww(k, k);
  la::Vector s_wx(k);
  std::vector<double> v_w(k);

  for (std::size_t t = 0; t < n; ++t) {
    fm.ObservationAt(model, t, z);
    MatVec<Dim>(cov, z, pz);
    const double prediction_x = Dot<Dim>(z, state);
    const double prediction_variance =
        Dot<Dim>(z, pz) + model.observation_variance;
    base.predictions[t] = prediction_x;
    base.prediction_variances[t] = prediction_variance;

    const double x = observations[t];
    if (IsMissing(x)) {
      base.innovations[t] = std::numeric_limits<double>::quiet_NaN();
      fm.TimesVector(state, tmp_vec);
      for (int i = 0; i < Dim; ++i) state[i] = tmp_vec[i];
      for (auto& sw : state_w) {
        fm.TimesVector(sw.data(), tmp_vec);
        for (int i = 0; i < Dim; ++i) sw[i] = tmp_vec[i];
      }
      PredictCovariance<Dim>(fm, cov, tmp_mat, cov);
      continue;
    }
    if (!(prediction_variance > 0.0) ||
        !std::isfinite(prediction_variance)) {
      return Status::NumericError(
          "non-positive prediction variance at t=" + std::to_string(t));
    }

    const double v_x = x - prediction_x;
    base.innovations[t] = v_x;
    for (std::size_t j = 0; j < k; ++j) {
      v_w[j] = regressors[j][t] - Dot<Dim>(z, state_w[j].data());
    }

    if (prediction_variance > options.diffuse_variance_threshold) {
      ++skipped_diffuse;
    } else {
      log_likelihood -=
          0.5 * (kLogTwoPi + std::log(prediction_variance) +
                 v_x * v_x / prediction_variance);
      ++effective;
      for (std::size_t a = 0; a < k; ++a) {
        s_wx[a] += v_w[a] * v_x / prediction_variance;
        for (std::size_t b = 0; b < k; ++b) {
          s_ww(a, b) += v_w[a] * v_w[b] / prediction_variance;
        }
      }
    }

    const double gain_x = v_x / prediction_variance;
    for (int i = 0; i < Dim; ++i) {
      filtered[i] = state[i] + pz[i] * gain_x;
    }
    for (std::size_t j = 0; j < k; ++j) {
      const double gain_w = v_w[j] / prediction_variance;
      for (int i = 0; i < Dim; ++i) {
        state_w[j][i] += pz[i] * gain_w;
      }
      fm.TimesVector(state_w[j].data(), tmp_vec);
      for (int i = 0; i < Dim; ++i) state_w[j][i] = tmp_vec[i];
    }
    for (int r = 0; r < Dim; ++r) {
      for (int c = 0; c < Dim; ++c) {
        filtered_cov[r * Dim + c] =
            cov[r * Dim + c] - pz[r] * pz[c] / prediction_variance;
      }
    }
    fm.TimesVector(filtered, state);
    PredictCovariance<Dim>(fm, filtered_cov, tmp_mat, cov);
  }

  base.log_likelihood = log_likelihood;
  base.effective_observations = effective;
  base.skipped_diffuse = skipped_diffuse;
  base.final_state = ToVector<Dim>(state);
  base.final_covariance = ToMatrix<Dim>(cov);

  result.lambdas.assign(k, 0.0);
  result.profiled_log_likelihood = log_likelihood;
  if (k > 0) {
    auto solution = la::CholeskySolve(s_ww, s_wx);
    if (solution.ok()) {
      result.identified = true;
      result.lambdas = solution->data();
      result.profiled_log_likelihood =
          log_likelihood + 0.5 * la::Dot(s_wx, *solution);
    }
  } else {
    result.identified = true;
  }
  return result;
}

Status NoKernelError(std::size_t dim) {
  return Status::InvalidArgument(
      "no fixed Kalman kernel compiled for state dimension " +
      std::to_string(dim) +
      " (use the Dispatch* entry points, or add the dimension to "
      "kalman_fixed.cc)");
}

}  // namespace

// The structural models the pipeline fits: LL (dim 1), LL + two
// trigonometric harmonics (dim 5), and LL + period-12 dummy seasonal
// (dim 12). Adding a dimension is one line per dispatcher.
bool HasFixedKernel(std::size_t state_dim) {
  return state_dim == 1 || state_dim == 5 || state_dim == 12;
}

Result<FilterResult> RunFilterFixed(const StateSpaceModel& model,
                                    const std::vector<double>& observations,
                                    const KalmanOptions& options) {
  switch (model.state_dim()) {
    case 1:
      return RunFilterImpl<1>(model, observations, options);
    case 5:
      return RunFilterImpl<5>(model, observations, options);
    case 12:
      return RunFilterImpl<12>(model, observations, options);
    default:
      return NoKernelError(model.state_dim());
  }
}

Result<RegressionFilterResult> RunFilterWithRegressionFixed(
    const StateSpaceModel& model, const std::vector<double>& observations,
    const std::vector<double>& regressor, const KalmanOptions& options) {
  switch (model.state_dim()) {
    case 1:
      return RunRegressionImpl<1>(model, observations, regressor, options);
    case 5:
      return RunRegressionImpl<5>(model, observations, regressor, options);
    case 12:
      return RunRegressionImpl<12>(model, observations, regressor, options);
    default:
      return NoKernelError(model.state_dim());
  }
}

Result<MultiRegressionFilterResult> RunFilterWithRegressorsFixed(
    const StateSpaceModel& model, const std::vector<double>& observations,
    const std::vector<std::vector<double>>& regressors,
    const KalmanOptions& options) {
  switch (model.state_dim()) {
    case 1:
      return RunRegressorsImpl<1>(model, observations, regressors, options);
    case 5:
      return RunRegressorsImpl<5>(model, observations, regressors, options);
    case 12:
      return RunRegressorsImpl<12>(model, observations, regressors,
                                   options);
    default:
      return NoKernelError(model.state_dim());
  }
}

Result<FilterResult> DispatchFilter(const StateSpaceModel& model,
                                    const std::vector<double>& observations,
                                    const KalmanOptions& options) {
  return HasFixedKernel(model.state_dim())
             ? RunFilterFixed(model, observations, options)
             : RunFilter(model, observations, options);
}

Result<RegressionFilterResult> DispatchFilterWithRegression(
    const StateSpaceModel& model, const std::vector<double>& observations,
    const std::vector<double>& regressor, const KalmanOptions& options) {
  return HasFixedKernel(model.state_dim())
             ? RunFilterWithRegressionFixed(model, observations, regressor,
                                            options)
             : RunFilterWithRegression(model, observations, regressor,
                                       options);
}

Result<MultiRegressionFilterResult> DispatchFilterWithRegressors(
    const StateSpaceModel& model, const std::vector<double>& observations,
    const std::vector<std::vector<double>>& regressors,
    const KalmanOptions& options) {
  return HasFixedKernel(model.state_dim())
             ? RunFilterWithRegressorsFixed(model, observations, regressors,
                                            options)
             : RunFilterWithRegressors(model, observations, regressors,
                                       options);
}

}  // namespace mic::ssm
