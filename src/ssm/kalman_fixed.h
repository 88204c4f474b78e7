// Compile-time fixed-dimension Kalman kernels for the structural
// model's small state vectors (level = 1, level + trig seasonal = 5,
// level + 11 dummy seasonal states = 12 at the paper's monthly period).
//
// Each kernel is a twin of the dynamic implementation in kalman.cc that
// keeps its per-step temporaries in flat stack arrays sized by the
// template parameter, and the two produce bit-identical FilterResults.
// P*z, the dot products and the Symmetrize averaging replicate the
// dynamic loops verbatim. The products with the transition T do not:
// each pass indexes T's nonzeros once (row by row, ascending column)
// and forms T*P, (T*P)*T' and T*a over that index alone. The paper's
// dim-12 T has 22 nonzeros of 144, so a matrix product costs 264
// multiply-adds instead of up to 1728. This is exact because:
//   - T*P: la::MultiplyInto already skips T's zero entries and visits
//     the rest in the same order;
//   - (T*P)*T' and T*a: every term one path adds and the other does
//     not is a finite value times an exact zero, i.e. +-0. Each sum
//     starts at +0.0, and under round-to-nearest a sum that starts at
//     +0.0 is never -0.0, so adding +-0 leaves its bits unchanged;
//   - every input is finite (a fit caps its log-variances at +-50), so
//     no dropped term is inf * 0 = NaN.
//
// The state dimension alone picks the kernel: the Dispatch* entry
// points below, which every fit calls, run the fixed path whenever the
// model's dimension has a compiled kernel and the dynamic path
// otherwise. The Run*Fixed functions fail loudly on a dimension with no
// kernel; the dynamic Run* functions in kalman.h stay the reference the
// bit-exactness tests compare against.

#ifndef MICTREND_SSM_KALMAN_FIXED_H_
#define MICTREND_SSM_KALMAN_FIXED_H_

#include <cstddef>
#include <vector>

#include "common/result.h"
#include "ssm/kalman.h"
#include "ssm/model.h"

namespace mic::ssm {

/// True when a compile-time kernel exists for this state dimension.
bool HasFixedKernel(std::size_t state_dim);

/// Fixed-dimension twin of RunFilter. Fails with InvalidArgument when
/// the model's state dimension has no compiled kernel.
Result<FilterResult> RunFilterFixed(const StateSpaceModel& model,
                                    const std::vector<double>& observations,
                                    const KalmanOptions& options = {});

/// Fixed-dimension twin of RunFilterWithRegression.
Result<RegressionFilterResult> RunFilterWithRegressionFixed(
    const StateSpaceModel& model, const std::vector<double>& observations,
    const std::vector<double>& regressor, const KalmanOptions& options = {});

/// Fixed-dimension twin of RunFilterWithRegressors.
Result<MultiRegressionFilterResult> RunFilterWithRegressorsFixed(
    const StateSpaceModel& model, const std::vector<double>& observations,
    const std::vector<std::vector<double>>& regressors,
    const KalmanOptions& options = {});

/// Kernel-dispatching entry points: the Run*Fixed twin when
/// HasFixedKernel(model.state_dim()), the dynamic Run* otherwise
/// (bit-identical either way).
Result<FilterResult> DispatchFilter(const StateSpaceModel& model,
                                    const std::vector<double>& observations,
                                    const KalmanOptions& options = {});

Result<RegressionFilterResult> DispatchFilterWithRegression(
    const StateSpaceModel& model, const std::vector<double>& observations,
    const std::vector<double>& regressor, const KalmanOptions& options = {});

Result<MultiRegressionFilterResult> DispatchFilterWithRegressors(
    const StateSpaceModel& model, const std::vector<double>& observations,
    const std::vector<std::vector<double>>& regressors,
    const KalmanOptions& options = {});

}  // namespace mic::ssm

#endif  // MICTREND_SSM_KALMAN_FIXED_H_
