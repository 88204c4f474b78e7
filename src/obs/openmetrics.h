// Prometheus/OpenMetrics text exposition for the obs registries —
// the payload behind the serve daemon's HTTP GET /metrics.
//
// Mapping (mictrend metric -> exposition families, all prefixed
// "mictrend_", dots and dashes in names replaced by underscores):
//   - Counter "a.b"      -> counter family mictrend_a_b
//                           (sample mictrend_a_b_total)
//   - Gauge "a.b"        -> gauge family mictrend_a_b
//   - Timer "a.b"        -> counter families mictrend_a_b_calls and
//                           mictrend_a_b_seconds (both monotone)
//   - Histogram "a.b"    -> histogram family mictrend_a_b with
//                           cumulative le-labeled buckets, _count, _sum
//   - WindowRegistry     -> counter families mictrend_channel_requests,
//                           _errors and _seconds (each channel's
//                           since-start totals, samples
//                           mictrend_channel_requests_total{
//                           channel="serve.health"}), then gauge
//                           families mictrend_window_requests,
//                           _errors, _rps, _error_rate, and
//                           mictrend_window_latency_seconds
//                           (quantile-labeled), every sample labeled
//                           {channel="serve.health",window="60s"}
//
// Output is deterministic for a deterministic snapshot: families in a
// fixed section order, samples name-ascending, every family preceded
// by exactly one HELP and one TYPE line, terminated by "# EOF".
// scripts/openmetrics_lint.py holds this format to the spec in CI.

#ifndef MICTREND_OBS_OPENMETRICS_H_
#define MICTREND_OBS_OPENMETRICS_H_

#include <string>
#include <string_view>

#include "obs/metrics.h"
#include "obs/window.h"

namespace mic::obs {

/// "serve.swap.stalls" -> "mictrend_serve_swap_stalls"; any character
/// outside [a-zA-Z0-9_:] becomes '_'.
std::string OpenMetricsName(std::string_view name);

/// Renders both registries (either may be null) as one exposition.
std::string RenderOpenMetrics(const MetricsRegistry* metrics,
                              const WindowRegistry* windows);

}  // namespace mic::obs

#endif  // MICTREND_OBS_OPENMETRICS_H_
