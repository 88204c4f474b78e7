// Hierarchical drill-down over the trend report (ROADMAP item; the
// hierarchical cost-driver approach of Li & Jiang et al. in PAPERS.md):
// aggregate per-series monthly quantities up one hierarchy axis, run
// the existing changepoint/AIC machinery on every aggregate, and search
// downward for the smallest subgroup explaining an aggregate shift.
//
// Axes mirror the hierarchies the corpus already carries:
//   medicine  : all -> ATC-like class (name minus its final
//               hyphen-separated segment) -> medicine
//   disease   : all -> chapter (same name rule) -> disease
//   hospital  : all -> city -> bed-size class within the city
//               (paper §VII-C buckets) -> hospital
//
// Everything here is deterministic by construction: children are sorted
// by name, aggregation sums children in that order, and fresh analyses
// run through TrendAnalyzer::SweepSeries (the PR 6 wavefront), so a
// drill-down report is bit-identical at any thread count.

#ifndef MICTREND_TREND_DRILLDOWN_H_
#define MICTREND_TREND_DRILLDOWN_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/exec_context.h"
#include "common/result.h"
#include "medmodel/timeseries.h"
#include "mic/dataset.h"
#include "trend/trend_analyzer.h"

namespace mic::trend {

enum class DrillAxis : int {
  kMedicine = 0,
  kDisease = 1,
  kHospital = 2,
};

inline constexpr int kNumDrillAxes = 3;

/// Stable wire/CLI name ("medicine" / "disease" / "hospital").
std::string_view DrillAxisName(DrillAxis axis);

/// Inverse of DrillAxisName; InvalidArgument names the offender and the
/// accepted values.
Result<DrillAxis> ParseDrillAxis(std::string_view name);

/// One node of a drill-down tree. Nodes are stored in topological
/// order (node 0 is the root and a child's index is always greater
/// than its parent's), `children` holds node indexes sorted by child
/// name, and `series` is the
/// node's monthly aggregate — a leaf's own series, or the elementwise
/// sum of its children in `children` order for an internal node (fixed
/// summation order keeps the floating-point result deterministic).
struct DrillNode {
  std::string name;
  int parent = -1;
  int depth = 0;
  std::vector<int> children;
  bool is_leaf = false;
  std::vector<double> series;
  double total = 0.0;
  /// Changepoint verdict for `series`. Medicine/disease-axis leaves
  /// reuse the flat report's analysis; every other node's aggregate
  /// goes through TrendAnalyzer::SweepSeries, which answers it from the
  /// "drill" cache namespace when context.cache holds it and fits it
  /// otherwise.
  SeriesAnalysis analysis;
};

struct DrillDownReport {
  DrillAxis axis = DrillAxis::kMedicine;
  int num_months = 0;
  std::vector<DrillNode> nodes;

  /// Index of the node named `name`; -1 when absent. Names are unique
  /// except in an own-class chain (a hyphen-free leaf under a class
  /// node of the same name), where the class node — first in storage
  /// order — wins; an explain starting there still descends to the
  /// leaf. Bed-size nodes are city-qualified ("metro/small").
  int FindNode(std::string_view name) const;
};

/// Builds the drill-down tree for one axis. `report` supplies the
/// already-fitted leaf analyses for the medicine/disease axes (leaves
/// missing from it — e.g. degenerate series skipped by AnalyzeAll — are
/// fitted fresh); the hospital axis derives its leaf series from the
/// corpus records (total medicine mentions per hospital per month) and
/// fits every node. `options` must be the analyzer options the flat
/// report was built with, both for verdict consistency and because they
/// key the drill cache: a node's "drill" key mixes their fingerprint, a
/// drill-layout version, the axis, the node's name and its values.
///
/// Counters (context.metrics): trend.rollup.nodes,
/// trend.rollup.leaf_reuses, and — with a cache attached — SweepSeries'
/// trend.rollup.cache_hits / trend.rollup.cache_misses, all under a
/// "drilldown" span.
Result<DrillDownReport> BuildDrillDown(const ExecContext& context,
                                       const MicCorpus& corpus,
                                       const medmodel::SeriesSet& series,
                                       const TrendReport& report,
                                       DrillAxis axis,
                                       const TrendAnalyzerOptions& options);

/// One hop of a subgroup-search descent: `share` is this node's
/// contribution to its parent step's shift (1.0 for the first step).
struct ExplainStep {
  std::string node;
  double delta = 0.0;
  double share = 1.0;
};

struct ExplainResult {
  std::string target;
  /// The target's detected change month; all deltas compare the mean
  /// level from this month on against the mean level before it.
  int change_month = -1;
  double delta = 0.0;
  double min_share = 0.0;
  /// Descent from the target to the driver, target first.
  std::vector<ExplainStep> path;
  /// The smallest subgroup explaining the shift (last node on `path`).
  std::string driver;
  /// driver delta / target delta.
  double driver_share = 1.0;
};

/// Subgroup search: starting at `target_node` (which must have a
/// detected change), greedily descends to the child contributing the
/// largest same-direction share of the current node's level shift,
/// while that share stays >= `min_share`; exact ties pick the child
/// earliest in preorder (= lowest name among siblings). NotFound when
/// the node does not exist or has no detected change.
Result<ExplainResult> ExplainShift(const DrillDownReport& report,
                                   std::string_view target_node,
                                   double min_share = 0.6);

}  // namespace mic::trend

#endif  // MICTREND_TREND_DRILLDOWN_H_
