#include "trend/trend_analyzer.h"

#include <cmath>
#include <cstdlib>
#include <memory>
#include <optional>
#include <utility>

#include "cache/cache_store.h"
#include "cache/fingerprint.h"
#include "cache/snapshot_io.h"
#include "common/logging.h"
#include "obs/trace.h"
#include "obs/trace_log.h"
#include "runtime/thread_pool.h"
#include "ssm/decompose.h"
#include "stats/metrics.h"

namespace mic::trend {

std::string_view ChangeCauseName(ChangeCause cause) {
  switch (cause) {
    case ChangeCause::kNone:
      return "none";
    case ChangeCause::kDiseaseDerived:
      return "disease-derived";
    case ChangeCause::kMedicineDerived:
      return "medicine-derived";
    case ChangeCause::kPrescriptionDerived:
      return "prescription-derived";
  }
  return "?";
}

std::size_t TrendReport::CountChanges(SeriesKind kind) const {
  const std::vector<SeriesAnalysis>* source = nullptr;
  switch (kind) {
    case SeriesKind::kDisease:
      source = &diseases;
      break;
    case SeriesKind::kMedicine:
      source = &medicines;
      break;
    case SeriesKind::kPrescription:
      source = &prescriptions;
      break;
  }
  std::size_t count = 0;
  for (const SeriesAnalysis& analysis : *source) {
    if (analysis.has_change) ++count;
  }
  return count;
}

Result<SeriesAnalysis> TrendAnalyzer::AnalyzeSeries(
    const ExecContext& context, SeriesKind kind, DiseaseId d, MedicineId m,
    std::span<const double> series) const {
  // A one-item sweep, fitted inline so it is safe inside a pool worker.
  ExecContext inline_context = context;
  inline_context.pool = nullptr;
  SweepItem item;
  item.series = series;
  item.analysis.kind = kind;
  item.analysis.disease = d;
  item.analysis.medicine = m;
  MIC_RETURN_IF_ERROR(SweepSeries(inline_context, {&item, 1}));
  MIC_RETURN_IF_ERROR(item.status);
  return std::move(item.analysis);
}

namespace {

// One per-series fit dispatched to the pool. The series is referenced,
// not copied: the SeriesSet outlives the dispatch.
struct SeriesTask {
  SeriesKind kind;
  DiseaseId disease;
  MedicineId medicine;
  const std::vector<double>* series;
};

// Version salt for cached SeriesAnalysis entries: bump whenever the
// analysis algorithm changes in a way that leaves stale cached verdicts
// structurally valid (v2 = candidate-level wavefront sweep).
constexpr std::uint64_t kSeriesAnalysisVersion = 2;

}  // namespace

// Every option that can change a single-series verdict takes part in
// the cache key; editing any of them re-keys the whole sweep.
std::uint64_t FingerprintAnalyzerOptions(
    const TrendAnalyzerOptions& options) {
  cache::Hasher hasher;
  hasher.Mix(kSeriesAnalysisVersion);
  const ssm::ChangePointOptions& detector = options.detector;
  hasher.Mix(detector.seasonal ? 1 : 0);
  hasher.MixSigned(detector.period);
  hasher.MixSigned(detector.fit.restarts);
  hasher.MixSigned(detector.fit.optimizer.max_evaluations);
  hasher.MixDouble(detector.fit.optimizer.tolerance);
  hasher.MixDouble(detector.fit.optimizer.initial_step);
  hasher.MixSigned(detector.min_candidate);
  hasher.MixSigned(detector.min_tail_observations);
  hasher.MixDouble(detector.aic_margin);
  hasher.Mix(detector.candidate_kinds.size());
  for (ssm::InterventionKind kind : detector.candidate_kinds) {
    hasher.MixSigned(static_cast<std::int64_t>(kind));
  }
  hasher.MixSigned(static_cast<std::int64_t>(detector.criterion));
  hasher.Mix(options.use_approximate ? 1 : 0);
  hasher.Mix(options.normalize ? 1 : 0);
  return hasher.digest();
}

namespace {

std::uint64_t FingerprintSeriesTask(std::uint64_t options_key,
                                    const SeriesTask& task) {
  cache::Hasher hasher;
  hasher.Mix(options_key);
  hasher.MixSigned(static_cast<std::int64_t>(task.kind));
  hasher.Mix(task.disease.value());
  hasher.Mix(task.medicine.value());
  hasher.Mix(cache::FingerprintSeries(*task.series));
  return hasher.digest();
}

}  // namespace

std::vector<std::uint8_t> SerializeAnalysis(const SeriesAnalysis& analysis) {
  cache::SnapshotWriter writer;
  writer.PutI64(static_cast<std::int64_t>(analysis.kind));
  writer.PutU32(analysis.disease.value());
  writer.PutU32(analysis.medicine.value());
  writer.PutU32(analysis.has_change ? 1 : 0);
  writer.PutI64(analysis.change_point);
  writer.PutDouble(analysis.lambda);
  writer.PutDouble(analysis.aic);
  writer.PutDouble(analysis.aic_without_intervention);
  writer.PutDouble(analysis.scale);
  writer.PutI64(analysis.fits_performed);
  return writer.Take();
}

Result<SeriesAnalysis> DeserializeAnalysis(
    const std::vector<std::uint8_t>& payload) {
  cache::SnapshotReader reader(payload);
  SeriesAnalysis analysis;
  MIC_ASSIGN_OR_RETURN(const std::int64_t kind, reader.I64());
  if (kind < 0 || kind > 2) {
    return Status::FailedPrecondition("series-analysis kind out of range");
  }
  analysis.kind = static_cast<SeriesKind>(kind);
  MIC_ASSIGN_OR_RETURN(const std::uint32_t disease, reader.U32());
  analysis.disease = DiseaseId(disease);
  MIC_ASSIGN_OR_RETURN(const std::uint32_t medicine, reader.U32());
  analysis.medicine = MedicineId(medicine);
  MIC_ASSIGN_OR_RETURN(const std::uint32_t has_change, reader.U32());
  analysis.has_change = has_change != 0;
  MIC_ASSIGN_OR_RETURN(const std::int64_t change_point, reader.I64());
  analysis.change_point = static_cast<int>(change_point);
  MIC_ASSIGN_OR_RETURN(analysis.lambda, reader.Double());
  MIC_ASSIGN_OR_RETURN(analysis.aic, reader.Double());
  MIC_ASSIGN_OR_RETURN(analysis.aic_without_intervention, reader.Double());
  MIC_ASSIGN_OR_RETURN(analysis.scale, reader.Double());
  MIC_ASSIGN_OR_RETURN(const std::int64_t fits, reader.I64());
  analysis.fits_performed = static_cast<int>(fits);
  if (!reader.AtEnd()) {
    return Status::FailedPrecondition(
        "trailing bytes after series-analysis snapshot");
  }
  return analysis;
}

namespace {

// One in-flight per-series search in the candidate-level wavefront.
// The detector owns the normalized working copy; `options` is the exact
// option set the detector was constructed with, so a worker-side
// EvaluateCandidate call fits precisely the models the detector planned
// for. `analysis` carries the item's ids and normalization scale until
// FinishSearch fills in the verdict.
struct SweepSlot {
  SweepSlot(std::size_t task_index_in, const SeriesAnalysis& analysis_in,
            std::vector<double> working,
            const ssm::ChangePointOptions& detector_options)
      : task_index(task_index_in),
        analysis(analysis_in),
        options(detector_options),
        detector(std::move(working), detector_options) {}

  std::size_t task_index;
  SeriesAnalysis analysis;
  ssm::ChangePointOptions options;
  ssm::ChangePointDetector detector;
};

}  // namespace

Result<TrendReport> TrendAnalyzer::AnalyzeAll(
    const ExecContext& context, const medmodel::SeriesSet& set) const {
  obs::MetricsRegistry* metrics = context.metrics;
  obs::Span detect_span(context, "detect");

  // Collect every series in the serial traversal order; that order also
  // assembles the report below, so the result does not depend on which
  // thread fits which series.
  std::vector<SeriesTask> tasks;
  tasks.reserve(set.num_diseases() + set.num_medicines() +
                set.num_pairs());
  set.ForEachDisease([&tasks](DiseaseId d,
                              const std::vector<double>& series) {
    tasks.push_back({SeriesKind::kDisease, d, MedicineId(), &series});
  });
  set.ForEachMedicine([&tasks](MedicineId m,
                               const std::vector<double>& series) {
    tasks.push_back({SeriesKind::kMedicine, DiseaseId(), m, &series});
  });
  set.ForEachPair([&tasks](DiseaseId d, MedicineId m,
                           const std::vector<double>& series) {
    tasks.push_back({SeriesKind::kPrescription, d, m, &series});
  });

  // Dirty-set sweep: answer unchanged series from the cache before the
  // dispatch. The serial prepass keeps hit/miss accounting in traversal
  // order, so the counters are identical at any thread count.
  std::vector<SeriesAnalysis> analyses(tasks.size());
  std::vector<Status> statuses(tasks.size());
  cache::CacheStore* store = context.cache;
  const bool cache_active =
      store != nullptr && (store->can_read() || store->can_write());
  std::vector<std::uint64_t> keys;
  std::vector<char> from_cache(tasks.size(), 0);
  if (cache_active) {
    const std::uint64_t options_key = FingerprintAnalyzerOptions(options_);
    keys.resize(tasks.size());
    std::uint64_t hits = 0;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      keys[i] = FingerprintSeriesTask(options_key, tasks[i]);
      if (!store->can_read()) continue;
      auto payload = store->Get("series", keys[i]);
      if (!payload.ok()) continue;  // Miss or corrupt: recompute cold.
      auto cached = DeserializeAnalysis(*payload);
      if (!cached.ok() || cached->kind != tasks[i].kind ||
          cached->disease != tasks[i].disease ||
          cached->medicine != tasks[i].medicine) {
        continue;  // Malformed or collided entry: recompute cold.
      }
      analyses[i] = std::move(*cached);
      from_cache[i] = 1;
      ++hits;
    }
    if (metrics != nullptr) {
      obs::Increment(obs::GetCounter(metrics, "trend.series_cache_hits"),
                     hits);
      obs::Increment(
          obs::GetCounter(metrics, "trend.series_cache_misses"),
          static_cast<std::uint64_t>(tasks.size()) - hits);
    }
  }

  // Batch the uncached series through the candidate-level wavefront
  // (SweepSeries below). Items are assembled in task order and folded
  // back in the same order, so the report and every counter stay
  // bit-identical to the serial path at any thread count.
  std::vector<SweepItem> sweep;
  std::vector<std::size_t> sweep_to_task;
  sweep.reserve(tasks.size());
  sweep_to_task.reserve(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (from_cache[i]) continue;
    const SeriesTask& task = tasks[i];
    SweepItem item;
    item.series = *task.series;
    item.analysis.kind = task.kind;
    item.analysis.disease = task.disease;
    item.analysis.medicine = task.medicine;
    sweep.push_back(std::move(item));
    sweep_to_task.push_back(i);
  }
  MIC_RETURN_IF_ERROR(SweepSeries(context, sweep));
  for (std::size_t j = 0; j < sweep.size(); ++j) {
    const std::size_t i = sweep_to_task[j];
    if (!sweep[j].status.ok()) {
      statuses[i] = sweep[j].status;
      continue;
    }
    analyses[i] = std::move(sweep[j].analysis);
  }

  // Publish the fresh analyses; write failures degrade to "no cache".
  if (cache_active && store->can_write()) {
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      if (from_cache[i] || !statuses[i].ok()) continue;
      Status put = store->Put("series", keys[i],
                              SerializeAnalysis(analyses[i]));
      if (!put.ok()) {
        MIC_LOG(Warning) << "cache write failed: " << put.ToString();
      }
    }
  }

  // Assemble in task order; keep the serial error policy (the first
  // non-InvalidArgument failure wins, degenerate series are skipped).
  TrendReport report;
  Status first_error = Status::OK();
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (!statuses[i].ok()) {
      if (first_error.ok() &&
          statuses[i].code() != StatusCode::kInvalidArgument) {
        first_error = statuses[i];
      }
      continue;
    }
    const SeriesTask& task = tasks[i];
    switch (task.kind) {
      case SeriesKind::kDisease:
        report.disease_index.emplace(task.disease, report.diseases.size());
        report.diseases.push_back(std::move(analyses[i]));
        break;
      case SeriesKind::kMedicine:
        report.medicine_index.emplace(task.medicine,
                                      report.medicines.size());
        report.medicines.push_back(std::move(analyses[i]));
        break;
      case SeriesKind::kPrescription:
        report.prescriptions.push_back(std::move(analyses[i]));
        break;
    }
  }
  MIC_RETURN_IF_ERROR(first_error);

  if (metrics != nullptr) {
    obs::Increment(obs::GetCounter(metrics, "trend.series_analyzed"),
                   tasks.size());
    std::uint64_t fits = 0;
    std::uint64_t changes = 0;
    for (const auto* group :
         {&report.diseases, &report.medicines, &report.prescriptions}) {
      for (const SeriesAnalysis& analysis : *group) {
        fits += static_cast<std::uint64_t>(analysis.fits_performed);
        if (analysis.has_change) ++changes;
      }
    }
    obs::Increment(obs::GetCounter(metrics, "trend.series_fits"), fits);
    obs::Increment(obs::GetCounter(metrics, "trend.changes_detected"),
                   changes);
    std::uint64_t cause_counts[4] = {0, 0, 0, 0};
    for (const SeriesAnalysis& prescription : report.prescriptions) {
      const ChangeCause cause =
          ClassifyPrescriptionChange(report, prescription);
      ++cause_counts[static_cast<int>(cause)];
    }
    obs::Increment(obs::GetCounter(metrics, "trend.cause.disease_derived"),
                   cause_counts[static_cast<int>(
                       ChangeCause::kDiseaseDerived)]);
    obs::Increment(obs::GetCounter(metrics, "trend.cause.medicine_derived"),
                   cause_counts[static_cast<int>(
                       ChangeCause::kMedicineDerived)]);
    obs::Increment(
        obs::GetCounter(metrics, "trend.cause.prescription_derived"),
        cause_counts[static_cast<int>(ChangeCause::kPrescriptionDerived)]);
  }
  return report;
}

Status TrendAnalyzer::SweepSeries(const ExecContext& context,
                                  std::span<SweepItem> items) const {
  runtime::ThreadPool* pool = context.pool;
  obs::MetricsRegistry* metrics = context.metrics;
  // Per-series fit wall time. Workers record into this pre-resolved
  // handle directly (they do not inherit the span stack).
  obs::Timer* fit_timer = obs::GetTimer(metrics, "trend.series_fit");

  // Candidate-level wavefront. One slot per item normalizes the series,
  // wires metrics, and starts the resumable search, in item order; each
  // round then gathers the pending candidate fits of ALL open searches
  // into one batch for the pool. The pool therefore sees
  // series x candidates-per-round independent fits instead of one
  // opaque task per series — the serial per-series AIC sweep no longer
  // starves it. All detector-side bookkeeping (counters, memo updates,
  // fit accounting) happens in the serial fold-back below, in item
  // order, so every verdict and counter is bit-identical to the serial
  // path at any thread count.
  std::vector<std::unique_ptr<SweepSlot>> slots;
  slots.reserve(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    SweepItem& item = items[i];
    std::vector<double> working(item.series.begin(), item.series.end());
    if (options_.normalize) {
      const double sd = stats::StdDev(working);
      if (sd > 0.0) {
        item.analysis.scale = sd;
        for (double& value : working) value /= sd;
      }
    }
    ssm::ChangePointOptions detector_options = options_.detector;
    if (metrics != nullptr) {
      detector_options.fit.metrics = metrics;
    }
    slots.push_back(std::make_unique<SweepSlot>(i, item.analysis,
                                                std::move(working),
                                                detector_options));
    slots.back()->detector.BeginSearch(options_.use_approximate);
  }

  // A candidate fit dispatched to the pool this round.
  struct CandidateRef {
    SweepSlot* slot;
    int t_cp;
  };
  while (true) {
    std::vector<CandidateRef> batch;
    for (const auto& slot : slots) {
      if (slot->detector.SearchDone()) continue;
      for (int t_cp : slot->detector.PendingCandidates()) {
        batch.push_back({slot.get(), t_cp});
      }
    }
    if (batch.empty()) break;
    // Result<CandidateEvaluation> has no default constructor; stage the
    // worker results through optionals.
    std::vector<std::optional<Result<ssm::CandidateEvaluation>>> evals(
        batch.size());
    MIC_RETURN_IF_ERROR(runtime::ParallelFor(
        pool, 0, batch.size(), 1,
        obs::TraceChunks(
            context.trace, "trend-sweep",
            [&batch, &evals, &context, fit_timer](
                std::size_t chunk_begin, std::size_t chunk_end,
                std::size_t) {
              for (std::size_t j = chunk_begin; j < chunk_end; ++j) {
                const CandidateRef& ref = batch[j];
                obs::ScopedTimer fit_scope(fit_timer, context.trace,
                                           "series_fit");
                evals[j].emplace(ssm::EvaluateCandidate(
                    ref.slot->detector.series(), ref.slot->options,
                    ref.t_cp));
              }
              return Status::OK();
            }),
        "trend-sweep"));
    // Serial fold-back in batch (= item) order.
    for (std::size_t j = 0; j < batch.size(); ++j) {
      batch[j].slot->detector.SupplyEvaluation(batch[j].t_cp,
                                               std::move(*evals[j]));
    }
  }

  // Close out each search: the verdict, plus lambda in original units.
  for (auto& slot : slots) {
    SweepItem& item = items[slot->task_index];
    Result<ssm::ChangePointResult> detected = slot->detector.FinishSearch();
    if (!detected.ok()) {
      item.status = detected.status();
      continue;
    }
    SeriesAnalysis analysis = std::move(slot->analysis);
    analysis.has_change = detected->has_change;
    analysis.change_point = detected->change_point;
    analysis.aic = detected->best_aic;
    analysis.aic_without_intervention = detected->aic_without_intervention;
    analysis.fits_performed = detected->fits_performed;
    if (detected->has_change) {
      auto decomposition =
          ssm::Decompose(detected->best_model, slot->detector.series());
      if (decomposition.ok()) {
        analysis.lambda = decomposition->lambda * analysis.scale;
      }
    }
    item.analysis = std::move(analysis);
  }
  return Status::OK();
}

ChangeCause TrendAnalyzer::ClassifyPrescriptionChange(
    const TrendReport& report, const SeriesAnalysis& prescription) const {
  if (!prescription.has_change) return ChangeCause::kNone;

  auto near = [this, &prescription](const SeriesAnalysis& other) {
    return other.has_change &&
           std::abs(other.change_point - prescription.change_point) <=
               options_.cause_window;
  };

  auto disease_it = report.disease_index.find(prescription.disease);
  if (disease_it != report.disease_index.end() &&
      near(report.diseases[disease_it->second])) {
    return ChangeCause::kDiseaseDerived;
  }
  auto medicine_it = report.medicine_index.find(prescription.medicine);
  if (medicine_it != report.medicine_index.end() &&
      near(report.medicines[medicine_it->second])) {
    return ChangeCause::kMedicineDerived;
  }
  return ChangeCause::kPrescriptionDerived;
}

}  // namespace mic::trend
