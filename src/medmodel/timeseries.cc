#include "medmodel/timeseries.h"

#include <algorithm>
#include <optional>

#include "cache/cache_store.h"
#include "cache/fingerprint.h"
#include "common/logging.h"
#include "medmodel/baselines.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mic::medmodel {
namespace {

double SeriesTotal(const std::vector<double>& series) {
  double total = 0.0;
  for (double value : series) total += value;
  return total;
}

template <typename Map>
std::size_t PruneMap(Map& map, double min_total) {
  std::size_t removed = 0;
  for (auto it = map.begin(); it != map.end();) {
    if (SeriesTotal(it->second) < min_total) {
      it = map.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  return removed;
}

}  // namespace

std::vector<double> SeriesSet::Prescription(DiseaseId d, MedicineId m) const {
  auto it = pairs_.find(PairKey(d, m));
  if (it == pairs_.end()) return std::vector<double>(num_months_, 0.0);
  return it->second;
}

std::vector<double> SeriesSet::Disease(DiseaseId d) const {
  auto it = diseases_.find(d);
  if (it == diseases_.end()) return std::vector<double>(num_months_, 0.0);
  return it->second;
}

std::vector<double> SeriesSet::Medicine(MedicineId m) const {
  auto it = medicines_.find(m);
  if (it == medicines_.end()) return std::vector<double>(num_months_, 0.0);
  return it->second;
}

void SeriesSet::Add(DiseaseId d, MedicineId m, int t, double value) {
  auto& pair = pairs_[PairKey(d, m)];
  if (pair.empty()) pair.assign(num_months_, 0.0);
  pair[t] += value;
  auto& disease = diseases_[d];
  if (disease.empty()) disease.assign(num_months_, 0.0);
  disease[t] += value;
  auto& medicine = medicines_[m];
  if (medicine.empty()) medicine.assign(num_months_, 0.0);
  medicine[t] += value;
}

namespace {

template <typename Key, typename Match>
std::vector<std::pair<Key, double>> RankPairs(
    const std::unordered_map<std::uint64_t, std::vector<double>>& pairs,
    std::size_t k, Match&& match) {
  std::vector<std::pair<Key, double>> ranked;
  for (const auto& [key, series] : pairs) {
    auto matched = match(key);
    if (!matched.has_value()) continue;
    double total = 0.0;
    for (double value : series) total += value;
    ranked.push_back({*matched, total});
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;  // Deterministic ties.
            });
  if (ranked.size() > k) ranked.resize(k);
  return ranked;
}

}  // namespace

std::vector<std::pair<MedicineId, double>> SeriesSet::TopMedicines(
    DiseaseId d, std::size_t k) const {
  return RankPairs<MedicineId>(
      pairs_, k,
      [d](std::uint64_t key) -> std::optional<MedicineId> {
        if (!(PairDisease(key) == d)) return std::nullopt;
        return PairMedicine(key);
      });
}

std::vector<std::pair<DiseaseId, double>> SeriesSet::TopDiseases(
    MedicineId m, std::size_t k) const {
  return RankPairs<DiseaseId>(
      pairs_, k,
      [m](std::uint64_t key) -> std::optional<DiseaseId> {
        if (!(PairMedicine(key) == m)) return std::nullopt;
        return PairDisease(key);
      });
}

void SeriesSet::SetPrescriptionSeries(DiseaseId d, MedicineId m,
                                      std::vector<double> values) {
  values.resize(num_months_, 0.0);
  pairs_[PairKey(d, m)] = std::move(values);
}

void SeriesSet::SetDiseaseSeries(DiseaseId d, std::vector<double> values) {
  values.resize(num_months_, 0.0);
  diseases_[d] = std::move(values);
}

void SeriesSet::SetMedicineSeries(MedicineId m,
                                  std::vector<double> values) {
  values.resize(num_months_, 0.0);
  medicines_[m] = std::move(values);
}

std::size_t SeriesSet::PruneRareSeries(double min_total) {
  std::size_t removed = 0;
  removed += PruneMap(pairs_, min_total);
  removed += PruneMap(diseases_, min_total);
  removed += PruneMap(medicines_, min_total);
  return removed;
}

Result<SeriesSet> ReproduceSeries(const MicCorpus& corpus,
                                  const ReproducerOptions& options) {
  return ReproduceSeries(corpus, options, ExecContext{});
}

namespace {

// Chain fingerprint of one month's fit: the month's content digest, the
// fit options, and the previous month's fingerprint. Chaining the
// previous fingerprint makes warm-started (and temporally coupled) fits
// content addressed: editing month k re-keys every month >= k, while a
// one-month append leaves months 0..k-1 hitting their old snapshots.
std::uint64_t ChainedMonthFingerprint(std::uint64_t content_digest,
                                      const MedicationModelOptions& options,
                                      bool warm_start,
                                      std::uint64_t previous) {
  cache::Hasher hasher;
  hasher.Mix(content_digest);
  hasher.MixSigned(options.max_iterations);
  hasher.MixDouble(options.tolerance);
  hasher.MixDouble(options.phi_smoothing);
  hasher.MixDouble(options.prior_strength);
  hasher.Mix(warm_start ? 1 : 0);
  hasher.Mix(previous);
  return hasher.digest();
}

// Content digest of the month about to be fitted. When the ingest layer
// stamped a fingerprint on the raw month (the claim store persists one
// per segment), mixing that stamp with the filter settings is as
// injective as re-hashing the filtered records — filtering is a pure
// function of (raw month, options) — and skips a full pass over the
// data. Note the two derivations produce *different* key spaces: a
// store-ingested run and a CSV run keep separate (but each internally
// consistent and equally correct) snapshot universes.
std::uint64_t MonthContentDigest(const MonthlyDataset& raw_month,
                                 const MonthlyDataset& filtered_month,
                                 const ReproducerOptions& options,
                                 obs::Counter* fingerprint_reuses) {
  if (!raw_month.has_content_fingerprint()) {
    return cache::FingerprintMonth(filtered_month);
  }
  obs::Increment(fingerprint_reuses);
  cache::Hasher hasher;
  hasher.Mix(raw_month.content_fingerprint());
  hasher.Mix(options.apply_filter ? 1 : 0);
  hasher.Mix(options.filter_options.min_disease_count);
  hasher.Mix(options.filter_options.min_medicine_count);
  hasher.Mix(options.filter_options.drop_empty_records ? 1 : 0);
  return hasher.digest();
}

// Applies one month's pair counts to the series in ascending pair-key
// order. The derived disease/medicine sums of Eq. 8 accumulate across
// several pairs, so the application order is a floating-point contract:
// sorting makes a freshly fitted model and its deserialized snapshot
// (whose map iteration orders differ) produce byte-identical series.
void ApplyCountsSorted(const PairCounts& counts, std::size_t t,
                       SeriesSet& series) {
  std::vector<std::pair<std::uint64_t, double>> ordered(
      counts.raw().begin(), counts.raw().end());
  std::sort(ordered.begin(), ordered.end());
  for (const auto& [key, value] : ordered) {
    series.Add(PairDisease(key), PairMedicine(key), static_cast<int>(t),
               value);
  }
}

}  // namespace

Result<SeriesSet> ReproduceSeries(const MicCorpus& corpus,
                                  const ReproducerOptions& options,
                                  const ExecContext& context) {
  if (corpus.num_months() == 0) {
    return Status::InvalidArgument("corpus has no months");
  }
  obs::MetricsRegistry* metrics = context.metrics;
  obs::Span reproduce_span(context, "reproduce");
  obs::Counter* fitted_counter =
      obs::GetCounter(metrics, "reproduce.months_fitted");
  obs::Counter* skipped_counter =
      obs::GetCounter(metrics, "reproduce.months_skipped");
  obs::Counter* snapshot_hits =
      obs::GetCounter(metrics, "reproduce.snapshot_hits");
  obs::Counter* snapshot_misses =
      obs::GetCounter(metrics, "reproduce.snapshot_misses");
  obs::Counter* fingerprint_reuses =
      obs::GetCounter(metrics, "reproduce.fingerprint_reuses");

  // The cache only stores MedicationModel snapshots; the cooccurrence
  // baseline is a single counting pass and not worth the I/O.
  cache::CacheStore* store =
      options.model_kind == LinkModelKind::kProposed ? context.cache
                                                     : nullptr;
  const bool cache_active =
      store != nullptr && (store->can_read() || store->can_write());
  // An attached cache implies warm starts: the seeding (write) run and
  // the incremental (read) run must fit every missed month identically,
  // so both derive the same effective option here.
  MedicationModelOptions model_options = options.model_options;
  model_options.warm_start = model_options.warm_start || cache_active;

  SeriesSet series(static_cast<int>(corpus.num_months()));
  // With temporal coupling (prior_strength > 0) each month's fit uses
  // the previous month's model as its Dirichlet prior (§IX extension);
  // warm starts reuse the same chain as the EM initializer.
  const bool keep_previous =
      model_options.prior_strength > 0.0 || model_options.warm_start;
  std::unique_ptr<MedicationModel> previous_model;
  std::uint64_t previous_fingerprint = 0;
  for (std::size_t t = 0; t < corpus.num_months(); ++t) {
    const MonthlyDataset& raw_month = corpus.month(t);
    MonthlyDataset month = raw_month;  // Copy; filter mutates.
    if (options.apply_filter) {
      FilterMonth(options.filter_options, month);
    }
    if (month.empty()) {  // A quiet month contributes zeros.
      obs::Increment(skipped_counter);
      continue;
    }

    const PairCounts* counts = nullptr;
    std::unique_ptr<MedicationModel> proposed;
    std::unique_ptr<CooccurrenceModel> cooccurrence;
    if (options.model_kind == LinkModelKind::kProposed) {
      std::uint64_t fingerprint = 0;
      if (cache_active) {
        fingerprint = ChainedMonthFingerprint(
            MonthContentDigest(raw_month, month, options,
                               fingerprint_reuses),
            model_options, model_options.warm_start,
            previous_fingerprint);
        if (store->can_read()) {
          auto payload = store->Get("em", fingerprint);
          if (payload.ok()) {
            auto restored = MedicationModel::Deserialize(*payload);
            if (restored.ok()) {
              proposed = std::move(restored).value();
              obs::Increment(snapshot_hits);
            }
            // A payload that fails to deserialize falls through to a
            // cold refit (and rewrites the entry below).
          }
        }
      }
      if (proposed == nullptr) {
        if (cache_active) obs::Increment(snapshot_misses);
        auto fitted = MedicationModel::Fit(month, model_options,
                                           previous_model.get(), context);
        if (!fitted.ok()) {  // No usable records this month.
          obs::Increment(skipped_counter);
          continue;
        }
        proposed = std::move(fitted).value();
        obs::Increment(fitted_counter);
        if (cache_active && store->can_write()) {
          // A failed write only costs the next run a refit.
          Status put = store->Put("em", fingerprint,
                                  proposed->Serialize());
          if (!put.ok()) {
            MIC_LOG(Warning) << "cache write failed: " << put.ToString();
          }
        }
      }
      counts = &proposed->MonthlyPairCounts();
      previous_fingerprint = fingerprint;
    } else {
      auto fitted = CooccurrenceModel::Fit(month);
      if (!fitted.ok()) {
        obs::Increment(skipped_counter);
        continue;
      }
      cooccurrence = std::move(fitted).value();
      counts = &cooccurrence->MonthlyPairCounts();
      obs::Increment(fitted_counter);
    }

    ApplyCountsSorted(*counts, t, series);
    if (proposed != nullptr && keep_previous) {
      previous_model = std::move(proposed);
    }
  }
  const std::size_t pruned =
      series.PruneRareSeries(options.min_series_total);
  obs::Increment(obs::GetCounter(metrics, "reproduce.series_pruned"),
                 pruned);
  return series;
}

}  // namespace mic::medmodel
