// mic::ExecContext: the execution context passed explicitly through the
// pipeline's public entry points (RunPipeline, MedicationModel::Fit,
// TrendAnalyzer::AnalyzeAll, ReproduceSeries).
//
// It bundles the cross-cutting facilities a stage may use:
//   - pool:    the mic::runtime::ThreadPool parallel work dispatches to
//              (null = run inline, bit-identical output either way);
//   - metrics: the mic::obs::MetricsRegistry stage counters, timers,
//              and spans record into (null = observability disabled at
//              near-zero cost);
//   - trace:   the mic::obs::TraceLog spans and ParallelFor chunks emit
//              begin/end timeline events into (null = no tracing).
//              Tracing never touches the metrics counters, so counter
//              determinism holds with or without it.
//   - cache:   the mic::cache::CacheStore the incremental engine reads
//              fitted-model snapshots and per-series reports from and
//              writes them to (null = every stage computes cold).
//              Cache hits reproduce the cold computation bit for bit,
//              so output determinism holds with or without it.
//
// The context is the only way to hand a stage a thread pool: the
// per-options pool fields that carried one before (deprecated since the
// observability PR) are gone. A caller that still sets `options.pool`
// fails to compile; pass the pool via ExecContext instead (see the
// migration notes in docs/usage_cookbook.md).
//
// Only forward declarations are needed here: the context is a bundle of
// non-owning pointers, so this header stays includable from any layer
// without dragging in threads, metrics, or the cache implementation.

#ifndef MICTREND_COMMON_EXEC_CONTEXT_H_
#define MICTREND_COMMON_EXEC_CONTEXT_H_

namespace mic::runtime {
class ThreadPool;
}  // namespace mic::runtime
namespace mic::obs {
class MetricsRegistry;
class TraceLog;
}  // namespace mic::obs
namespace mic::cache {
class CacheStore;
}  // namespace mic::cache

namespace mic {

struct ExecContext {
  /// Execution pool (not owned; null runs parallel stages inline).
  runtime::ThreadPool* pool = nullptr;
  /// Metrics sink (not owned; null disables observability).
  obs::MetricsRegistry* metrics = nullptr;
  /// Event trace sink (not owned; null disables trace timelines).
  obs::TraceLog* trace = nullptr;
  /// Incremental-computation store (not owned; null disables caching).
  cache::CacheStore* cache = nullptr;
};

}  // namespace mic

#endif  // MICTREND_COMMON_EXEC_CONTEXT_H_
