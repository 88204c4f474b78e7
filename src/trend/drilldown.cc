#include "trend/drilldown.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "cache/cache_store.h"
#include "cache/fingerprint.h"
#include "common/logging.h"
#include "mic/catalog.h"
#include "obs/trace.h"
#include "stats/metrics.h"

namespace mic::trend {

std::string_view DrillAxisName(DrillAxis axis) {
  switch (axis) {
    case DrillAxis::kMedicine:
      return "medicine";
    case DrillAxis::kDisease:
      return "disease";
    case DrillAxis::kHospital:
      return "hospital";
  }
  return "?";
}

Result<DrillAxis> ParseDrillAxis(std::string_view name) {
  if (name == "medicine") return DrillAxis::kMedicine;
  if (name == "disease") return DrillAxis::kDisease;
  if (name == "hospital") return DrillAxis::kHospital;
  return Status::InvalidArgument("unknown axis '" + std::string(name) +
                                 "' (expected medicine|disease|hospital)");
}

int DrillDownReport::FindNode(std::string_view name) const {
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

namespace {

// ATC-like class of a synthetic name: the name minus its final
// hyphen-separated segment ("bronchodilator-new" -> "bronchodilator").
// A name with no hyphen is its own class (a single-child chain).
std::string ClassOf(std::string_view name) {
  const std::size_t cut = name.rfind('-');
  if (cut == std::string_view::npos || cut == 0) return std::string(name);
  return std::string(name.substr(0, cut));
}

// A leaf gathered before tree assembly: `series` points into the
// SeriesSet / a local buffer that outlives BuildTree; `flat_index` is
// the row in the flat report to reuse (-1 = fit fresh).
struct Leaf {
  std::string name;
  const std::vector<double>* series;
  int flat_index;
};

// A (group path, leaves) bucket; `path` is the chain of internal-node
// names between the root and the leaves (exclusive of both).
struct Group {
  std::vector<std::string> path;
  std::vector<Leaf> leaves;
};

// Assembles the preorder node tree from grouped leaves: root, then each
// group's internal chain followed by its leaves. Groups must arrive
// sorted by path; leaves are sorted here. Series fill happens after.
DrillDownReport BuildTree(DrillAxis axis, int num_months,
                          std::vector<Group> groups) {
  DrillDownReport report;
  report.axis = axis;
  report.num_months = num_months;

  DrillNode root;
  root.name = "all";
  report.nodes.push_back(std::move(root));

  for (Group& group : groups) {
    std::sort(group.leaves.begin(), group.leaves.end(),
              [](const Leaf& a, const Leaf& b) { return a.name < b.name; });
    int parent = 0;
    for (const std::string& label : group.path) {
      // Groups arrive path-sorted, so a shared prefix (e.g. the city
      // above two bed-size classes) was created by an earlier group;
      // reuse it instead of opening a duplicate chain.
      int existing = -1;
      for (int child : report.nodes[parent].children) {
        if (report.nodes[child].name == label) {
          existing = child;
          break;
        }
      }
      if (existing >= 0) {
        parent = existing;
        continue;
      }
      DrillNode node;
      node.name = label;
      node.parent = parent;
      node.depth = report.nodes[parent].depth + 1;
      const int index = static_cast<int>(report.nodes.size());
      report.nodes[parent].children.push_back(index);
      report.nodes.push_back(std::move(node));
      parent = index;
    }
    for (Leaf& leaf : group.leaves) {
      DrillNode node;
      node.name = std::move(leaf.name);
      node.parent = parent;
      node.depth = report.nodes[parent].depth + 1;
      node.is_leaf = true;
      node.series = *leaf.series;
      node.analysis.fits_performed = leaf.flat_index;  // Stash; see below.
      const int index = static_cast<int>(report.nodes.size());
      report.nodes[parent].children.push_back(index);
      report.nodes.push_back(std::move(node));
    }
  }
  return report;
}

// Fills internal-node series bottom-up (reverse preorder: children
// always follow their parent, so they are summed before the parent is
// visited) and every node's window total. Summation follows the sorted
// `children` order — a fixed order keeps the floats deterministic.
void FillAggregates(DrillDownReport& report) {
  for (std::size_t r = report.nodes.size(); r-- > 0;) {
    DrillNode& node = report.nodes[r];
    if (!node.is_leaf) {
      node.series.assign(static_cast<std::size_t>(report.num_months), 0.0);
      for (int child : node.children) {
        const std::vector<double>& values = report.nodes[child].series;
        for (std::size_t t = 0; t < values.size(); ++t) {
          node.series[t] += values[t];
        }
      }
    }
    node.total = 0.0;
    for (double value : node.series) node.total += value;
  }
}

// Cache key for one node's aggregate verdict: the shared analyzer
// option fingerprint (which carries the series-analysis version salt),
// a drill-layout version, the axis, the node's name, and its values.
constexpr std::uint64_t kDrillLayoutVersion = 1;

std::uint64_t FingerprintDrillNode(std::uint64_t options_key, DrillAxis axis,
                                   const DrillNode& node) {
  cache::Hasher hasher;
  hasher.Mix(kDrillLayoutVersion);
  hasher.Mix(options_key);
  hasher.MixSigned(static_cast<std::int64_t>(axis));
  hasher.MixString(node.name);
  hasher.Mix(cache::FingerprintSeries(node.series));
  return hasher.digest();
}

SeriesKind AxisSeriesKind(DrillAxis axis) {
  switch (axis) {
    case DrillAxis::kMedicine:
      return SeriesKind::kMedicine;
    case DrillAxis::kDisease:
      return SeriesKind::kDisease;
    case DrillAxis::kHospital:
      return SeriesKind::kPrescription;
  }
  return SeriesKind::kPrescription;
}

// Mean level after `t_cp` (inclusive) minus the mean level before it.
double LevelShift(const std::vector<double>& series, int t_cp) {
  if (t_cp <= 0 || t_cp >= static_cast<int>(series.size())) return 0.0;
  double before = 0.0;
  double after = 0.0;
  for (int t = 0; t < t_cp; ++t) before += series[static_cast<std::size_t>(t)];
  for (int t = t_cp; t < static_cast<int>(series.size()); ++t) {
    after += series[static_cast<std::size_t>(t)];
  }
  before /= static_cast<double>(t_cp);
  after /= static_cast<double>(static_cast<int>(series.size()) - t_cp);
  return after - before;
}

}  // namespace

Result<DrillDownReport> BuildDrillDown(const ExecContext& context,
                                       const MicCorpus& corpus,
                                       const medmodel::SeriesSet& series,
                                       const TrendReport& report,
                                       DrillAxis axis,
                                       const TrendAnalyzerOptions& options) {
  obs::Span drill_span(context, "drilldown");
  obs::MetricsRegistry* metrics = context.metrics;
  const Catalog& catalog = corpus.catalog();
  const int num_months = series.num_months() > 0
                             ? series.num_months()
                             : static_cast<int>(corpus.num_months());

  // --- Gather leaves and their grouping paths. -------------------------
  // Hospital leaf series are derived here (per-hospital monthly total of
  // medicine mentions) and must outlive BuildTree's copies.
  std::vector<std::vector<double>> hospital_series;
  std::vector<Group> groups;

  if (axis == DrillAxis::kHospital) {
    // One pass over the records: hospital -> monthly prescription load.
    hospital_series.assign(catalog.hospitals().size(),
                           std::vector<double>());
    for (std::size_t t = 0; t < corpus.num_months(); ++t) {
      for (const MicRecord& record : corpus.month(t).records()) {
        const std::size_t h = record.hospital.value();
        if (h >= hospital_series.size()) continue;
        if (hospital_series[h].empty()) {
          hospital_series[h].assign(
              static_cast<std::size_t>(num_months), 0.0);
        }
        hospital_series[h][t] +=
            static_cast<double>(record.TotalMedicineMentions());
      }
    }
    // Group by (city, bed-size class); hospitals without registered
    // attributes land under city "unknown" as small (beds 0).
    std::vector<std::pair<std::vector<std::string>, Leaf>> entries;
    for (std::size_t h = 0; h < hospital_series.size(); ++h) {
      if (hospital_series[h].empty()) continue;  // Never seen in corpus.
      const HospitalId id(static_cast<std::uint32_t>(h));
      std::string city = "unknown";
      std::uint32_t beds = 0;
      if (auto info = catalog.GetHospitalInfo(id); info.ok()) {
        city = catalog.cities().Name(info->city);
        beds = info->beds;
      }
      const std::string size_class(
          HospitalClassName(ClassifyHospital(beds)));
      // Bed-size nodes are name-qualified by city so every node name in
      // the tree is unique (FindNode and the explain op key on names).
      entries.push_back({{city, city + "/" + size_class},
                         {catalog.hospitals().Name(id),
                          &hospital_series[h], -1}});
    }
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (auto& entry : entries) {
      if (groups.empty() || groups.back().path != entry.first) {
        groups.push_back({entry.first, {}});
      }
      groups.back().leaves.push_back(std::move(entry.second));
    }
  } else {
    // Medicine / disease axis: leaves are the flat report's series,
    // grouped under their ATC-like class (single-child chains when a
    // class has one member or the name has no hyphen).
    std::vector<std::pair<std::vector<std::string>, Leaf>> entries;
    if (axis == DrillAxis::kMedicine) {
      series.ForEachMedicine([&](MedicineId m,
                                 const std::vector<double>& values) {
        const std::string& name = catalog.medicines().Name(m);
        auto it = report.medicine_index.find(m);
        const int flat = it == report.medicine_index.end()
                             ? -1
                             : static_cast<int>(it->second);
        entries.push_back({{ClassOf(name)}, {name, &values, flat}});
      });
    } else {
      series.ForEachDisease([&](DiseaseId d,
                                const std::vector<double>& values) {
        const std::string& name = catalog.diseases().Name(d);
        auto it = report.disease_index.find(d);
        const int flat = it == report.disease_index.end()
                             ? -1
                             : static_cast<int>(it->second);
        entries.push_back({{ClassOf(name)}, {name, &values, flat}});
      });
    }
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (auto& entry : entries) {
      if (groups.empty() || groups.back().path != entry.first) {
        groups.push_back({entry.first, {}});
      }
      groups.back().leaves.push_back(std::move(entry.second));
    }
  }

  DrillDownReport drill = BuildTree(axis, num_months, std::move(groups));
  FillAggregates(drill);

  // --- Analyze every node. --------------------------------------------
  // Leaves with a flat-report row reuse it verbatim (their series are
  // exactly the rows AnalyzeAll fitted); everything else — internal
  // aggregates, unmatched leaves, all hospital nodes — goes through the
  // cache and then the wavefront. BuildTree stashed the flat index in
  // analysis.fits_performed; consume and reset it here.
  const std::vector<SeriesAnalysis>& flat_rows =
      axis == DrillAxis::kDisease ? report.diseases : report.medicines;
  const SeriesKind kind = AxisSeriesKind(axis);
  std::uint64_t leaf_reuses = 0;

  std::vector<std::size_t> pending;  // Node indexes needing a verdict.
  for (std::size_t i = 0; i < drill.nodes.size(); ++i) {
    DrillNode& node = drill.nodes[i];
    const int flat = node.analysis.fits_performed;
    node.analysis = SeriesAnalysis();
    node.analysis.kind = kind;
    if (node.is_leaf && axis != DrillAxis::kHospital && flat >= 0 &&
        flat < static_cast<int>(flat_rows.size())) {
      node.analysis = flat_rows[static_cast<std::size_t>(flat)];
      ++leaf_reuses;
      continue;
    }
    pending.push_back(i);
  }

  // Serial cache prepass in preorder, mirroring AnalyzeAll's dirty-set
  // sweep (deterministic hit/miss accounting at any thread count).
  cache::CacheStore* store = context.cache;
  const bool cache_active =
      store != nullptr && (store->can_read() || store->can_write());
  std::vector<std::uint64_t> keys;
  std::vector<std::size_t> uncached;
  if (cache_active) {
    const std::uint64_t options_key = FingerprintAnalyzerOptions(options);
    keys.resize(pending.size());
    std::uint64_t hits = 0;
    for (std::size_t p = 0; p < pending.size(); ++p) {
      DrillNode& node = drill.nodes[pending[p]];
      keys[p] = FingerprintDrillNode(options_key, axis, node);
      if (!store->can_read()) {
        uncached.push_back(p);
        continue;
      }
      auto payload = store->Get("drill", keys[p]);
      if (payload.ok()) {
        auto cached = DeserializeAnalysis(*payload);
        if (cached.ok() && cached->kind == kind) {
          node.analysis = std::move(*cached);
          ++hits;
          continue;
        }
      }
      uncached.push_back(p);
    }
    if (metrics != nullptr) {
      obs::Increment(obs::GetCounter(metrics, "trend.rollup.cache_hits"),
                     hits);
      obs::Increment(obs::GetCounter(metrics, "trend.rollup.cache_misses"),
                     static_cast<std::uint64_t>(pending.size()) - hits);
    }
  } else {
    uncached.resize(pending.size());
    for (std::size_t p = 0; p < pending.size(); ++p) uncached[p] = p;
  }

  // Fit the remainder through the shared wavefront, in preorder.
  std::vector<SweepItem> sweep(uncached.size());
  for (std::size_t j = 0; j < uncached.size(); ++j) {
    DrillNode& node = drill.nodes[pending[uncached[j]]];
    sweep[j].series = node.series;
    sweep[j].analysis.kind = kind;
  }
  TrendAnalyzer analyzer(options);
  MIC_RETURN_IF_ERROR(analyzer.SweepSeries(context, sweep));
  Status first_error = Status::OK();
  for (std::size_t j = 0; j < uncached.size(); ++j) {
    const std::size_t p = uncached[j];
    DrillNode& node = drill.nodes[pending[p]];
    if (!sweep[j].status.ok()) {
      // Mirror AnalyzeAll's policy: degenerate series keep their
      // no-change default, anything else fails the build.
      if (first_error.ok() &&
          sweep[j].status.code() != StatusCode::kInvalidArgument) {
        first_error = sweep[j].status;
      }
      continue;
    }
    node.analysis = std::move(sweep[j].analysis);
    if (cache_active && store->can_write()) {
      Status put =
          store->Put("drill", keys[p], SerializeAnalysis(node.analysis));
      if (!put.ok()) {
        MIC_LOG(Warning) << "drill cache write failed: " << put.ToString();
      }
    }
  }
  MIC_RETURN_IF_ERROR(first_error);

  if (metrics != nullptr) {
    obs::Increment(obs::GetCounter(metrics, "trend.rollup.nodes"),
                   drill.nodes.size());
    obs::Increment(obs::GetCounter(metrics, "trend.rollup.leaf_reuses"),
                   leaf_reuses);
  }
  return drill;
}

Result<ExplainResult> ExplainShift(const DrillDownReport& report,
                                   std::string_view target_node,
                                   double min_share) {
  const int target = report.FindNode(target_node);
  if (target < 0) {
    return Status::NotFound("unknown node '" + std::string(target_node) +
                            "' on the " +
                            std::string(DrillAxisName(report.axis)) +
                            " axis");
  }
  const DrillNode& root = report.nodes[static_cast<std::size_t>(target)];
  if (!root.analysis.has_change) {
    return Status::NotFound("node '" + std::string(target_node) +
                            "' has no detected change to explain");
  }

  ExplainResult result;
  result.target = root.name;
  result.change_month = root.analysis.change_point;
  result.min_share = min_share;
  result.delta = LevelShift(root.series, result.change_month);
  result.path.push_back({root.name, result.delta, 1.0});

  const double direction = result.delta < 0.0 ? -1.0 : 1.0;
  int current = target;
  double current_delta = result.delta;
  while (current_delta != 0.0) {
    const DrillNode& node = report.nodes[static_cast<std::size_t>(current)];
    if (node.children.empty()) break;
    // Children are preorder-sorted by name; a strict `>` keeps the
    // first (lowest-named, lowest-index) child on exact ties.
    int best = -1;
    double best_score = 0.0;
    double best_delta = 0.0;
    for (int child : node.children) {
      const double child_delta = LevelShift(
          report.nodes[static_cast<std::size_t>(child)].series,
          result.change_month);
      const double score = direction * child_delta;
      if (best < 0 || score > best_score) {
        best = child;
        best_score = score;
        best_delta = child_delta;
      }
    }
    if (best < 0) break;
    const double share = best_delta / current_delta;
    if (!(share >= min_share)) break;  // NaN-safe: stop on any doubt.
    result.path.push_back(
        {report.nodes[static_cast<std::size_t>(best)].name, best_delta,
         share});
    current = best;
    current_delta = best_delta;
  }

  result.driver = result.path.back().node;
  result.driver_share =
      result.delta == 0.0 ? 1.0 : result.path.back().delta / result.delta;
  return result;
}

}  // namespace mic::trend
