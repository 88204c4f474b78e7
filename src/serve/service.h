// TrendService: the daemon's request handler, independent of any
// transport. The TCP server (serve/server.h) parses frames into
// JsonValue requests and hands them here; tests call Handle() directly.
//
// The op universe lives in ONE place — the declarative endpoint
// registry (serve/registry.h) — which also carries each op's typed
// parameter schema; Dispatch validates every request against it before
// any handler runs (unknown parameters are rejected). Query ops run
// entirely against a pinned WorldSnapshot — no locks, no mutable
// service state. Mutating ops (ingest) serialize on a mutex, build the
// next snapshot off the query path, and publish it through the
// SnapshotHub; queries keep answering from the old snapshot until the
// swap lands.
//
// Every response carries the snapshot's version and month count next to
// the payload, which is what lets a client (and the hammer test) assert
// that one response is internally consistent — all fields from one
// snapshot, never torn across a swap.
//
// Observability: each request records its latency and outcome once,
// into the "serve.<op>" window channel (unknown ops share
// "serve.unknown"). That one instrument serves every reader: rolling
// p50/p95/p99, rps and error rate per window, plus the since-start
// request, error and seconds totals that `stats`, /varz and the
// mictrend_channel_*_total OpenMetrics families report (obs/window.h).
// Each request also emits a "serve/<op>" trace event nested under
// whatever span path the transport opened (the server's per-request
// "req/<id>" path). Ingest additionally maintains
// serve.ingest.months_appended, serve.snapshots_published, the
// "serve.swap.drain" window channel, and the swap_started_ns() stamp
// the server's stall watchdog samples.

#ifndef MICTREND_SERVE_SERVICE_H_
#define MICTREND_SERVE_SERVICE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/exec_context.h"
#include "common/result.h"
#include "obs/window.h"
#include "serve/registry.h"
#include "serve/snapshot.h"
#include "serve/wire.h"
#include "store/claim_store.h"
#include "trend/pipeline.h"

namespace mic::obs {
class TraceLog;
}  // namespace mic::obs

namespace mic::serve {

/// Protocol version served in `health` responses and checked against a
/// request's optional "protocol" field (docs/serve_protocol.md states
/// the compatibility rules). Version 2: every framed op routes through
/// the declarative endpoint registry (serve/registry.h) and unknown
/// request members are rejected with bad_request instead of ignored.
inline constexpr std::int64_t kProtocolVersion = 2;

/// Builds the uniform error envelope:
/// {"ok":false,"error":{"code":"...","message":"..."}}.
/// Codes: bad_request, not_found, conflict, io_error, internal,
/// frame_too_large (used by the server), overloaded (ditto).
JsonValue ErrorEnvelope(const Status& status);

class TrendService {
 public:
  /// Opens the claim store named by config.store (which must be
  /// enabled and non-empty), runs the pipeline once, and publishes
  /// snapshot version 1. `context` is captured for the lifetime of the
  /// service: context.cache warm-starts rebuilds, context.metrics
  /// receives the serve.* metrics (null disables them).
  static Result<std::unique_ptr<TrendService>> Create(
      const trend::PipelineConfig& config, const ExecContext& context);

  /// Handles one request. Total: every failure becomes an error
  /// envelope, so the transport always has a document to write back.
  /// `reader` is the calling thread's registered hazard slot.
  JsonValue Handle(const JsonValue& request, const SnapshotReader& reader);

  SnapshotHub& hub() { return hub_; }
  obs::MetricsRegistry* metrics() const { return context_.metrics; }
  obs::TraceLog* trace() const { return context_.trace; }

  /// The service's sliding-window telemetry (never null): one channel
  /// per op ("serve.health", ..., "serve.unknown") plus
  /// "serve.swap.drain". Its ToJson() is both the HTTP /varz body and
  /// the framed `stats` payload.
  obs::WindowRegistry* windows() const { return windows_.get(); }

  /// Timestamp (windows()->NowNs() clock) when an in-flight snapshot
  /// publish started waiting for readers to drain, 0 when no swap is in
  /// flight. The server's watchdog samples it to detect swap stalls.
  std::uint64_t swap_started_ns() const {
    return swap_started_ns_.load(std::memory_order_relaxed);
  }

  /// Set once a shutdown request was handled; the server polls it.
  bool shutdown_requested() const {
    return shutdown_.load(std::memory_order_seq_cst);
  }

 private:
  TrendService(const trend::PipelineConfig& config,
               const ExecContext& context, store::ClaimStore store);

  /// Dispatches on request["op"] via the endpoint registry
  /// (serve/registry.h): unknown ops and schema violations (unknown
  /// parameters included) fail before any handler runs; status errors
  /// bubble up to Handle which wraps them in the envelope.
  Result<JsonValue> Dispatch(const std::string& op,
                             const JsonValue& request,
                             const SnapshotReader& reader);

  /// Query handlers, one per registry row, all on the uniform
  /// (request, snapshot) shape so the dispatch table stays positional.
  /// Handlers that need no parameters simply ignore `request`.
  Result<JsonValue> HandleHealth(const JsonValue& request,
                                 const WorldSnapshot& snapshot);
  Result<JsonValue> HandleMetrics(const JsonValue& request,
                                  const WorldSnapshot& snapshot);
  /// The windowed-telemetry snapshot with its per-channel totals
  /// (windows()->ToJson() parsed into the envelope), for
  /// `mictrend query --op stats`.
  Result<JsonValue> HandleStats(const JsonValue& request,
                                const WorldSnapshot& snapshot);
  Result<JsonValue> HandleSeries(const JsonValue& request,
                                 const WorldSnapshot& snapshot);
  Result<JsonValue> HandleTopChanges(const JsonValue& request,
                                     const WorldSnapshot& snapshot);
  Result<JsonValue> HandleGeoSpread(const JsonValue& request,
                                    const WorldSnapshot& snapshot);
  Result<JsonValue> HandleHospitalGap(const JsonValue& request,
                                      const WorldSnapshot& snapshot);
  /// The precomputed rollup tree for request["axis"].
  Result<JsonValue> HandleDrilldown(const JsonValue& request,
                                    const WorldSnapshot& snapshot);
  /// Subgroup search over the precomputed tree (trend::ExplainShift).
  Result<JsonValue> HandleExplain(const JsonValue& request,
                                  const WorldSnapshot& snapshot);
  Result<JsonValue> HandleReportCsv(const JsonValue& request,
                                    const WorldSnapshot& snapshot);
  Result<JsonValue> HandleShutdown(const JsonValue& request,
                                   const WorldSnapshot& snapshot);
  /// Serialized on ingest_mu_. Appends the months of request["corpus"]
  /// (a server-local CSV path; omitted = reload the store from disk to
  /// pick up external appends), rebuilds warm via context_.cache, and
  /// publishes the next snapshot version.
  Result<JsonValue> HandleIngest(const JsonValue& request);

  static constexpr std::size_t kNumOpSlots = kNumEndpoints + 1;

  trend::PipelineConfig config_;
  ExecContext context_;
  store::ClaimStore store_;
  SnapshotHub hub_;
  std::unique_ptr<obs::WindowRegistry> windows_;
  /// Channel "serve.<op>" per registry op plus a trailing "serve.unknown"
  /// catch-all, resolved once so the query path never takes the window
  /// registry's name-resolution mutex.
  std::array<obs::WindowedChannel*, kNumOpSlots> op_windows_{};
  obs::WindowedChannel* drain_channel_ = nullptr;
  std::atomic<std::uint64_t> swap_started_ns_{0};

  std::mutex ingest_mu_;
  std::uint64_t next_version_ = 2;  // guarded by ingest_mu_ after Create
  std::atomic<bool> shutdown_{false};
};

}  // namespace mic::serve

#endif  // MICTREND_SERVE_SERVICE_H_
