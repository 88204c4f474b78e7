// End-to-end prescription trend analysis: reproduced series -> per-series
// change point detection -> change cause classification (Fig. 1's second
// stage plus the §VII-A application logic).
//
// A change in a prescription series (d, m) is attributed to:
//   - the disease when the disease series x_d also breaks nearby
//     (epidemiologic/diagnostic shifts),
//   - the medicine when the medicine series x_m also breaks nearby
//     (new medicine, price revision, generic entry),
//   - the prescription relationship itself when neither does
//     (e.g. indication expansion, the paper's drug-repositioning signal).

#ifndef MICTREND_TREND_TREND_ANALYZER_H_
#define MICTREND_TREND_TREND_ANALYZER_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/exec_context.h"
#include "common/result.h"
#include "medmodel/timeseries.h"
#include "mic/types.h"
#include "ssm/changepoint.h"

namespace mic::trend {

enum class SeriesKind : int {
  kDisease = 0,
  kMedicine = 1,
  kPrescription = 2,
};

/// Analysis outcome for one series.
struct SeriesAnalysis {
  SeriesKind kind = SeriesKind::kPrescription;
  DiseaseId disease;    // valid for kDisease / kPrescription
  MedicineId medicine;  // valid for kMedicine / kPrescription
  bool has_change = false;
  /// 0-based month of the detected change (kNoChangePoint when none).
  int change_point = ssm::kNoChangePoint;
  /// Intervention scale in original (unnormalized) units per month.
  double lambda = 0.0;
  double aic = 0.0;
  double aic_without_intervention = 0.0;
  /// Normalization divisor applied before fitting.
  double scale = 1.0;
  int fits_performed = 0;
};

enum class ChangeCause : int {
  kNone = 0,
  kDiseaseDerived = 1,
  kMedicineDerived = 2,
  kPrescriptionDerived = 3,
};

std::string_view ChangeCauseName(ChangeCause cause);

struct TrendAnalyzerOptions {
  TrendAnalyzerOptions() {
    // Counteract the select-the-minimum optimism of searching ~40
    // candidates per series (see ChangePointOptions::aic_margin);
    // margin 4 keeps full recall on genuine breaks in calibration runs
    // while suppressing spurious detections on structureless series.
    detector.aic_margin = 4.0;
    // A "change" explained by fewer than three trailing observations is
    // an outlier, not a trend break.
    detector.min_tail_observations = 3;
  }

  ssm::ChangePointOptions detector;
  /// Algorithm 2 (binary search) when true, Algorithm 1 otherwise.
  bool use_approximate = true;
  /// Divide each series by its sample SD before fitting (keeps the
  /// big-kappa diffuse threshold meaningful across scales).
  bool normalize = true;
  /// A disease/medicine break within this many months of a prescription
  /// break counts as its cause.
  int cause_window = 3;
  // The former `pool` field is gone: AnalyzeAll runs on the pool of the
  // ExecContext it is given (see common/exec_context.h and the
  // migration notes in docs/usage_cookbook.md).
};

/// Cache-key and snapshot helpers for persisted SeriesAnalysis entries:
/// both the "series" and the "drill" namespace hold SerializeAnalysis
/// payloads, and the drill-down rollup (trend/drilldown.cc) keys its
/// entries with the same option fingerprint, so editing any
/// verdict-affecting option re-keys both namespaces at once. The
/// fingerprint already mixes the analysis version salt.
std::uint64_t FingerprintAnalyzerOptions(const TrendAnalyzerOptions& options);
std::vector<std::uint8_t> SerializeAnalysis(const SeriesAnalysis& analysis);
Result<SeriesAnalysis> DeserializeAnalysis(
    const std::vector<std::uint8_t>& payload);

/// One series in a batch sweep (see TrendAnalyzer::SweepSeries).
/// In: `series` views the monthly values (must outlive the call),
/// `analysis.kind/disease/medicine` carry the caller's identity tags,
/// and `key` is the series' cache key (read only when the sweep reads
/// through a cache). Out: `analysis` holds the full verdict (scale,
/// change point, AIC, lambda, fits) and `status` the per-series
/// failure, if any.
struct SweepItem {
  std::span<const double> series;
  std::uint64_t key = 0;
  SeriesAnalysis analysis;
  Status status;
};

/// Where a sweep reads through context.cache: the namespace its
/// entries live in and the prefix of its hit and miss counters
/// (`<prefix>hits`, `<prefix>misses`). An empty namespace fits every
/// item and leaves the cache alone.
struct SweepCache {
  std::string_view ns;
  std::string_view counter_prefix;
};

/// Full report over a SeriesSet.
struct TrendReport {
  std::vector<SeriesAnalysis> diseases;
  std::vector<SeriesAnalysis> medicines;
  std::vector<SeriesAnalysis> prescriptions;

  /// Index into `diseases` / `medicines` by id (for cause lookup).
  std::unordered_map<DiseaseId, std::size_t> disease_index;
  std::unordered_map<MedicineId, std::size_t> medicine_index;

  std::size_t CountChanges(SeriesKind kind) const;
};

class TrendAnalyzer {
 public:
  explicit TrendAnalyzer(const TrendAnalyzerOptions& options = {})
      : options_(options) {}

  /// Analyzes a single series (already reproduced) as a one-item
  /// SweepSeries, so its verdict is the one AnalyzeAll reports for the
  /// same series. Context-first, like every entry point: context.metrics
  /// receives the sweep's counters (changepoint.* / ssm.*); the pool is
  /// not consulted — a single series is always fitted inline, so this is
  /// safe to call from inside a ParallelFor worker. Takes a view so
  /// callers never copy the series just to hand it over; the one
  /// normalized working copy is made inside.
  ///
  /// (The former context-less convenience overloads are gone; pass
  /// ExecContext{} explicitly. See docs/usage_cookbook.md.)
  Result<SeriesAnalysis> AnalyzeSeries(const ExecContext& context,
                                       SeriesKind kind, DiseaseId d,
                                       MedicineId m,
                                       std::span<const double> series) const;

  /// Analyzes every disease, medicine, and prescription series in `set`.
  /// context.pool runs the candidate-level sweep (null = inline), and
  /// context.metrics receives the stage's counters
  /// (trend.series_analyzed / trend.series_fits /
  /// trend.changes_detected / trend.cause.*) under a "detect" span,
  /// plus the per-candidate trend.series_fit timer.
  ///
  /// Parallel decomposition: every series runs the resumable
  /// ChangePointDetector search, and each round batches the pending
  /// candidate fits of ALL series through one ParallelFor — so the pool
  /// sees series_count x candidates_per_round independent fits instead
  /// of one task per series whose internal sweep runs serially. All
  /// detector bookkeeping happens on the calling thread in task order,
  /// which keeps the report and every counter bit-identical at any
  /// thread count.
  ///
  /// context.cache (when attached) is read through by SweepSeries in
  /// the "series" namespace: each series is keyed by a fingerprint of
  /// (kind, ids, series values, analyzer + detector options). Unchanged
  /// series are answered from the cached SeriesAnalysis without fitting
  /// (trend.series_cache_hits); changed or new ones are fitted and
  /// written back (trend.series_cache_misses). Hits reproduce the cached
  /// analysis field-for-field — including fits_performed — so a warm
  /// report is byte-identical to the cold one at any thread count.
  Result<TrendReport> AnalyzeAll(const ExecContext& context,
                                 const medmodel::SeriesSet& set) const;

  /// Analyzes a caller-assembled batch. When `cache` names a namespace
  /// and context.cache is attached, a serial pass first answers every
  /// item whose cached entry (under item.key) deserializes and carries
  /// the item's kind, disease and medicine, and counts hits and misses
  /// under cache.counter_prefix. The misses then run the
  /// candidate-level wavefront: per-item normalization in item order,
  /// then each round gathers the pending candidate fits of ALL open
  /// searches into one ParallelFor on context.pool, with detector
  /// bookkeeping folded back serially in item order — the same
  /// bit-for-bit determinism contract as AnalyzeAll, which is itself
  /// built on this call. Fresh verdicts are written back in item order.
  /// Per-series failures land in item.status (the item's analysis is
  /// then untouched and nothing is cached); the returned Status only
  /// reports pool dispatch failures. AnalyzeAll reads through "series",
  /// the drill-down rollup "drill".
  Status SweepSeries(const ExecContext& context,
                     std::span<SweepItem> items,
                     const SweepCache& cache = {}) const;

  /// Attributes a detected prescription change using the disease and
  /// medicine verdicts already present in `report`. Returns kNone when
  /// the prescription series has no change.
  ChangeCause ClassifyPrescriptionChange(
      const TrendReport& report, const SeriesAnalysis& prescription) const;

 private:
  TrendAnalyzerOptions options_;
};

}  // namespace mic::trend

#endif  // MICTREND_TREND_TREND_ANALYZER_H_
