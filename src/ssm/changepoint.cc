#include "ssm/changepoint.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "obs/metrics.h"

namespace mic::ssm {

std::string_view SelectionCriterionName(SelectionCriterion criterion) {
  switch (criterion) {
    case SelectionCriterion::kAic:
      return "AIC";
    case SelectionCriterion::kAicc:
      return "AICc";
    case SelectionCriterion::kBic:
      return "BIC";
  }
  return "?";
}

double InformationCriterion(double log_likelihood, int parameters, int n,
                            SelectionCriterion criterion) {
  const double k = static_cast<double>(parameters);
  const double base = -2.0 * log_likelihood + 2.0 * k;
  switch (criterion) {
    case SelectionCriterion::kAic:
      return base;
    case SelectionCriterion::kAicc: {
      const double denominator = static_cast<double>(n) - k - 1.0;
      if (denominator <= 0.0) {
        return std::numeric_limits<double>::infinity();
      }
      return base + 2.0 * k * (k + 1.0) / denominator;
    }
    case SelectionCriterion::kBic:
      return -2.0 * log_likelihood +
             k * std::log(static_cast<double>(n));
  }
  return base;
}

Result<CandidateEvaluation> EvaluateCandidate(
    const std::vector<double>& series, const ChangePointOptions& options,
    int t_cp) {
  FitOptions fit_options = options.fit;
  fit_options.metrics = nullptr;  // Deltas travel in the result instead.
  CandidateEvaluation eval;
  const int n = static_cast<int>(series.size());

  auto fit_with = [&](const std::vector<Intervention>& interventions)
      -> Result<FittedStructuralModel> {
    StructuralSpec spec;
    spec.seasonal = options.seasonal;
    spec.period = options.period;
    spec.interventions = interventions;
    MIC_ASSIGN_OR_RETURN(FittedStructuralModel fitted,
                         FitStructuralModel(series, spec, fit_options));
    ++eval.fits_performed;
    eval.nelder_mead_evaluations +=
        static_cast<std::uint64_t>(fitted.optimizer_evaluations);
    eval.kalman_passes += fitted.kalman_passes;
    return fitted;
  };
  auto criterion_of = [&](const FittedStructuralModel& fitted) {
    return InformationCriterion(fitted.log_likelihood,
                                fitted.spec.TotalParameters(), n,
                                options.criterion);
  };

  if (t_cp == kNoChangePoint) {
    MIC_ASSIGN_OR_RETURN(FittedStructuralModel fitted, fit_with({}));
    eval.criterion = criterion_of(fitted);
    eval.model = std::move(fitted);
    return eval;
  }

  // One fit per candidate kind; keep the criterion-best shape.
  double best_criterion = std::numeric_limits<double>::infinity();
  std::optional<FittedStructuralModel> best_fit;
  Status last_error = Status::OK();
  for (InterventionKind kind : options.candidate_kinds) {
    auto fitted = fit_with({{t_cp, kind}});
    if (!fitted.ok()) {
      last_error = fitted.status();
      continue;
    }
    const double criterion = criterion_of(*fitted);
    if (criterion < best_criterion) {
      best_criterion = criterion;
      best_fit = std::move(fitted).value();
    }
  }
  if (!best_fit.has_value()) {
    return last_error.ok()
               ? Status::InvalidArgument("no candidate kinds configured")
               : last_error;
  }
  eval.criterion = best_criterion;
  eval.model = std::move(*best_fit);
  return eval;
}

ChangePointDetector::ChangePointDetector(std::vector<double> series,
                                         const ChangePointOptions& options)
    : series_(std::move(series)), options_(options) {
  obs::MetricsRegistry* metrics = options_.fit.metrics;
  pruned_counter_ =
      obs::GetCounter(metrics, "changepoint.candidates_pruned");
  evaluations_counter_ =
      obs::GetCounter(metrics, "changepoint.aic_evaluations");
  exact_counter_ =
      obs::GetCounter(metrics, "changepoint.exact.aic_evaluations");
  approximate_counter_ =
      obs::GetCounter(metrics, "changepoint.approximate.aic_evaluations");
  multiple_counter_ = obs::GetCounter(metrics, "changepoint.multiple.fits");
}

double ChangePointDetector::CriterionOf(
    const FittedStructuralModel& fitted) const {
  return InformationCriterion(fitted.log_likelihood,
                              fitted.spec.TotalParameters(),
                              static_cast<int>(series_.size()),
                              options_.criterion);
}

Result<FittedStructuralModel> ChangePointDetector::FitWith(
    const std::vector<Intervention>& interventions) {
  StructuralSpec spec;
  spec.seasonal = options_.seasonal;
  spec.period = options_.period;
  spec.interventions = interventions;
  MIC_ASSIGN_OR_RETURN(FittedStructuralModel fitted,
                       FitStructuralModel(series_, spec, options_.fit));
  ++fits_performed_;
  return fitted;
}

bool ChangePointDetector::NeedsEvaluation(int t_cp) const {
  return !memo_.contains(t_cp);
}

void ChangePointDetector::Request(int t_cp) {
  if (pending_set_.insert(t_cp).second) pending_.push_back(t_cp);
}

std::optional<Result<double>> ChangePointDetector::AicAt(int t_cp) {
  auto it = memo_.find(t_cp);
  if (it != memo_.end()) {
    // Candidate answered from the memo: the search pruned a fit.
    obs::Increment(pruned_counter_);
    return Result<double>(it->second.criterion);
  }
  auto failed = failed_this_search_.find(t_cp);
  if (failed != failed_this_search_.end()) {
    return Result<double>(failed->second);
  }
  auto staged = staged_.find(t_cp);
  if (staged == staged_.end()) {
    Request(t_cp);
    return std::nullopt;
  }

  // Consume the staged evaluation and do the fit's bookkeeping here, at
  // the point in the algorithm where the candidate is needed.
  obs::Increment(evaluations_counter_);
  obs::Increment(active_counter_);
  Result<CandidateEvaluation> evaluation = std::move(staged->second);
  staged_.erase(staged);
  if (!evaluation.ok()) {
    failed_this_search_.emplace(t_cp, evaluation.status());
    return Result<double>(evaluation.status());
  }
  CandidateEvaluation& eval = *evaluation;
  fits_performed_ += eval.fits_performed;
  obs::MetricsRegistry* metrics = options_.fit.metrics;
  if (metrics != nullptr && eval.fits_performed > 0) {
    obs::Increment(obs::GetCounter(metrics, "ssm.fits"),
                   static_cast<std::uint64_t>(eval.fits_performed));
    obs::Increment(
        obs::GetCounter(metrics, "ssm.nelder_mead_evaluations"),
        eval.nelder_mead_evaluations);
    obs::Increment(obs::GetCounter(metrics, "ssm.kalman_passes"),
                   eval.kalman_passes);
  }
  memo_.emplace(t_cp, CandidateFit{eval.criterion, std::move(eval.model)});
  return Result<double>(eval.criterion);
}

void ChangePointDetector::FailSearch(const Status& failure) {
  search_failure_ = failure;
  phase_ = SearchPhase::kFailed;
  pending_.clear();
  pending_set_.clear();
}

void ChangePointDetector::BeginSearch(bool approximate) {
  pending_.clear();
  pending_set_.clear();
  staged_.clear();
  failed_this_search_.clear();
  sweep_values_.clear();
  bisect_left_value_.reset();
  bisect_right_value_.reset();
  best_candidate_ = kNoChangePoint;
  search_failure_ = Status::OK();
  search_n_ = static_cast<int>(series_.size()) -
              std::max(options_.min_tail_observations - 1, 0);

  if (approximate) {
    active_counter_ = approximate_counter_;
    obs::Increment(obs::GetCounter(options_.fit.metrics,
                                   "changepoint.approximate.searches"));
    // The no-change fit is always needed by the final comparison;
    // requesting it up front (counter-neutrally) lets it ride the first
    // evaluation batch.
    if (NeedsEvaluation(kNoChangePoint)) Request(kNoChangePoint);
    bisect_left_ = options_.min_candidate;
    bisect_right_ = search_n_ - 1;
    if (bisect_left_ >= bisect_right_) {
      best_candidate_ =
          bisect_left_ < search_n_ ? bisect_left_ : kNoChangePoint;
      if (best_candidate_ != kNoChangePoint &&
          NeedsEvaluation(best_candidate_)) {
        Request(best_candidate_);
      }
      phase_ = SearchPhase::kFinalize;
      return;
    }
    phase_ = SearchPhase::kBisect;
    AdvanceSearch();
    return;
  }

  active_counter_ = exact_counter_;
  obs::Increment(
      obs::GetCounter(options_.fit.metrics, "changepoint.exact.searches"));
  phase_ = SearchPhase::kExactSweep;
  // Pass 1: answer what the memo can (each hit counts as a prune) and
  // queue everything else as one batch.
  for (int t = options_.min_candidate; t < search_n_; ++t) {
    if (NeedsEvaluation(t)) {
      Request(t);
      continue;
    }
    auto value = AicAt(t);
    if (value.has_value() && value->ok()) {
      sweep_values_.emplace(t, **value);
    }
  }
  if (NeedsEvaluation(kNoChangePoint)) Request(kNoChangePoint);
  AdvanceSearch();
}

void ChangePointDetector::AdvanceSearch() {
  if (!pending_.empty()) return;
  switch (phase_) {
    case SearchPhase::kExactSweep: {
      // Pass 2: consume the supplied sweep candidates in ascending
      // order; failed candidates are skipped.
      for (int t = options_.min_candidate; t < search_n_; ++t) {
        if (sweep_values_.find(t) != sweep_values_.end() ||
            failed_this_search_.find(t) != failed_this_search_.end()) {
          continue;
        }
        auto value = AicAt(t);
        if (!value.has_value()) return;  // Still pending (defensive).
        if (value->ok()) sweep_values_.emplace(t, **value);
      }
      double best_aic = std::numeric_limits<double>::infinity();
      best_candidate_ = kNoChangePoint;
      for (const auto& [t, aic] : sweep_values_) {
        if (aic <= best_aic) {  // Ties go to the later candidate.
          best_aic = aic;
          best_candidate_ = t;
        }
      }
      phase_ = SearchPhase::kFinalize;
      return;
    }
    case SearchPhase::kBisect: {
      // Algorithm 2: halve towards the endpoint with the lower
      // criterion. Endpoint queries keep the serial order — the right
      // endpoint's counters are only touched once the left endpoint
      // resolved successfully (the serial loop aborts between the two
      // on error) — but a right endpoint that needs a fit is requested
      // alongside the left one so both ride the same batch.
      while (bisect_right_ - bisect_left_ > 1) {
        const int middle = (bisect_left_ + bisect_right_) / 2;
        if (!bisect_left_value_.has_value()) {
          auto value = AicAt(bisect_left_);
          if (value.has_value()) {
            if (!value->ok()) {
              FailSearch(value->status());
              return;
            }
            bisect_left_value_ = **value;
          }
        }
        if (!bisect_left_value_.has_value()) {
          if (NeedsEvaluation(bisect_right_)) Request(bisect_right_);
          return;  // Blocked on the left endpoint.
        }
        if (!bisect_right_value_.has_value()) {
          auto value = AicAt(bisect_right_);
          if (value.has_value()) {
            if (!value->ok()) {
              FailSearch(value->status());
              return;
            }
            bisect_right_value_ = **value;
          }
        }
        if (!bisect_right_value_.has_value()) return;
        if (*bisect_left_value_ < *bisect_right_value_) {
          bisect_right_ = middle;
        } else {
          bisect_left_ = middle;
        }
        bisect_left_value_.reset();
        bisect_right_value_.reset();
      }
      phase_ = SearchPhase::kFinalEval;
      AdvanceSearch();
      return;
    }
    case SearchPhase::kFinalEval: {
      // The post-loop AicAt(left) / AicAt(right) comparison.
      if (!bisect_left_value_.has_value()) {
        auto value = AicAt(bisect_left_);
        if (value.has_value()) {
          if (!value->ok()) {
            FailSearch(value->status());
            return;
          }
          bisect_left_value_ = **value;
        }
      }
      if (!bisect_left_value_.has_value()) {
        if (NeedsEvaluation(bisect_right_)) Request(bisect_right_);
        return;
      }
      if (!bisect_right_value_.has_value()) {
        auto value = AicAt(bisect_right_);
        if (value.has_value()) {
          if (!value->ok()) {
            FailSearch(value->status());
            return;
          }
          bisect_right_value_ = **value;
        }
      }
      if (!bisect_right_value_.has_value()) return;
      best_candidate_ = *bisect_left_value_ <= *bisect_right_value_
                            ? bisect_left_
                            : bisect_right_;
      phase_ = SearchPhase::kFinalize;
      return;
    }
    default:
      return;
  }
}

std::vector<int> ChangePointDetector::PendingCandidates() const {
  return pending_;
}

void ChangePointDetector::SupplyEvaluation(
    int t_cp, Result<CandidateEvaluation> evaluation) {
  auto it = pending_set_.find(t_cp);
  if (it == pending_set_.end()) return;  // Stale or speculative.
  pending_set_.erase(it);
  pending_.erase(std::find(pending_.begin(), pending_.end(), t_cp));
  staged_.emplace(t_cp, std::move(evaluation));
  if (pending_.empty()) AdvanceSearch();
}

bool ChangePointDetector::SearchDone() const {
  return pending_.empty() && (phase_ == SearchPhase::kFinalize ||
                              phase_ == SearchPhase::kFailed);
}

Result<ChangePointResult> ChangePointDetector::FinishSearch() {
  const SearchPhase phase = phase_;
  phase_ = SearchPhase::kIdle;
  Result<ChangePointResult> result = [&]() -> Result<ChangePointResult> {
    if (phase == SearchPhase::kFailed) return search_failure_;
    if (phase != SearchPhase::kFinalize) {
      return Status::FailedPrecondition(
          "FinishSearch called before the search completed");
    }
    return Finalize(best_candidate_);
  }();
  // Speculative evaluations an aborted search never consumed are
  // dropped here, unseen by any counter.
  pending_.clear();
  pending_set_.clear();
  staged_.clear();
  failed_this_search_.clear();
  sweep_values_.clear();
  return result;
}

Result<ChangePointResult> ChangePointDetector::DriveSearch() {
  while (!SearchDone()) {
    const std::vector<int> batch = PendingCandidates();
    for (int t_cp : batch) {
      SupplyEvaluation(t_cp, EvaluateCandidate(series_, options_, t_cp));
    }
  }
  return FinishSearch();
}

Result<ChangePointResult> ChangePointDetector::Finalize(int best_candidate) {
  // Final comparison against the no-intervention model (the paper's
  // t = infinity candidate). Both values resolve from the memo or the
  // staged evaluations.
  auto without = AicAt(kNoChangePoint);
  if (!without.has_value()) {
    return Status::Internal(
        "change point search finished without the no-change fit");
  }
  if (!without->ok()) return without->status();
  const double aic_without = **without;
  auto best = AicAt(best_candidate);
  if (!best.has_value()) {
    return Status::Internal(
        "change point search finished without the best-candidate fit");
  }
  if (!best->ok()) return best->status();
  const double aic_best = **best;

  ChangePointResult result;
  result.aic_without_intervention = aic_without;
  result.fits_performed = fits_performed_;
  if (best_candidate != kNoChangePoint &&
      aic_best <= aic_without - options_.aic_margin) {
    result.has_change = true;
    result.change_point = best_candidate;
    result.best_aic = aic_best;
    result.best_model = memo_.at(best_candidate).model;
    if (!result.best_model.spec.interventions.empty()) {
      result.kind = result.best_model.spec.interventions.front().kind;
    }
  } else {
    result.has_change = false;
    result.change_point = kNoChangePoint;
    result.best_aic = aic_without;
    result.best_model = memo_.at(kNoChangePoint).model;
  }
  return result;
}

Result<ChangePointResult> ChangePointDetector::DetectExact() {
  BeginSearch(/*approximate=*/false);
  return DriveSearch();
}

Result<ChangePointResult> ChangePointDetector::DetectApproximate() {
  BeginSearch(/*approximate=*/true);
  return DriveSearch();
}

Result<MultiChangePointResult> ChangePointDetector::DetectMultiple(
    int max_breaks) {
  if (max_breaks < 1) {
    return Status::InvalidArgument("max_breaks must be >= 1");
  }
  active_counter_ = multiple_counter_;
  obs::Increment(obs::GetCounter(options_.fit.metrics,
                                 "changepoint.multiple.searches"));
  const int n = static_cast<int>(series_.size()) -
                std::max(options_.min_tail_observations - 1, 0);

  MultiChangePointResult result;
  MIC_ASSIGN_OR_RETURN(FittedStructuralModel current, FitWith({}));
  obs::Increment(multiple_counter_);
  result.aic_without_intervention = CriterionOf(current);
  double current_criterion = result.aic_without_intervention;
  std::vector<Intervention> accepted;

  for (int round = 0; round < max_breaks; ++round) {
    double best_criterion = std::numeric_limits<double>::infinity();
    std::optional<FittedStructuralModel> best_fit;
    std::optional<Intervention> best_intervention;
    for (int t = options_.min_candidate; t < n; ++t) {
      for (InterventionKind kind : options_.candidate_kinds) {
        const Intervention candidate{t, kind};
        if (std::find(accepted.begin(), accepted.end(), candidate) !=
            accepted.end()) {
          continue;
        }
        std::vector<Intervention> trial = accepted;
        trial.push_back(candidate);
        auto fitted = FitWith(trial);
        obs::Increment(multiple_counter_);
        if (!fitted.ok()) continue;
        const double criterion = CriterionOf(*fitted);
        if (criterion < best_criterion) {
          best_criterion = criterion;
          best_fit = std::move(fitted).value();
          best_intervention = candidate;
        }
      }
    }
    if (!best_intervention.has_value() ||
        best_criterion > current_criterion - options_.aic_margin) {
      break;  // No further break pays for its parameter.
    }
    accepted.push_back(*best_intervention);
    current = std::move(*best_fit);
    current_criterion = best_criterion;
  }

  result.interventions = accepted;
  result.best_aic = current_criterion;
  result.best_model = std::move(current);
  result.fits_performed = fits_performed_;
  return result;
}

Result<std::vector<double>> ChangePointDetector::AicCurve() {
  BeginSearch(/*approximate=*/false);
  // The verdict is not part of the curve: a failed one (e.g. the
  // no-change fit failing) still leaves every fitted candidate memoized.
  (void)DriveSearch();
  std::vector<double> curve(series_.size(),
                            std::numeric_limits<double>::quiet_NaN());
  for (int t = options_.min_candidate; t < search_n_; ++t) {
    auto it = memo_.find(t);
    if (it != memo_.end()) curve[t] = it->second.criterion;
  }
  return curve;
}

}  // namespace mic::ssm
