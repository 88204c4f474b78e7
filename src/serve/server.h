// TcpServer: the daemon's transport. Accepts TCP connections on a
// loopback (or given) address, frames requests/responses with the wire
// layer, and dispatches each parsed request to a TrendService.
//
// Threading model, sized for a small daemon rather than a C10K server:
//   - the accept loop runs on the thread that calls Serve(), polling
//     the listen socket so it observes stop conditions within one poll
//     interval, and sets TCP_NODELAY on every accepted socket (see
//     serve/wire.h for why). A failed accept() counts one
//     `serve.accept_errors` and the loop keeps serving; after fd or
//     memory exhaustion (EMFILE, ENFILE, ENOBUFS, ENOMEM) it first waits
//     one poll interval, because the connection stays in the backlog
//     and an immediate retry would spin. Only an error that means the
//     listen socket itself is unusable (EBADF, EINVAL, ENOTSOCK) stops
//     the server;
//   - a fixed pool of worker threads each own one registered
//     SnapshotReader (their hazard slot) and handle one connection at a
//     time, request by request. The per-request path — read frame,
//     parse, Handle() against a pinned snapshot, write frame — takes no
//     locks; the only synchronization a worker touches between
//     requests of one connection is its own hazard slot. The
//     mutex+condvar pair below hands *connections* (not requests) from
//     the accept loop to workers.
//   - request limits: frames above WireLimits::max_frame_bytes are
//     answered with a `frame_too_large` error envelope and the
//     connection is closed; when more than `max_pending` accepted
//     connections are waiting for a worker, new ones are answered with
//     `overloaded` and closed instead of queueing unboundedly.
//
// Observability (this transport layer, on top of the service's per-op
// window channels):
//   - every wire request gets a server-assigned id ("<hex>-<seq>"); a
//     stack-only span makes the request's trace events nest under
//     "req/<id>/...", and the same id keys the JSON-lines access log
//     (ServerOptions::access_log_path) — the join point between log,
//     trace, and metrics.
//   - plain HTTP GET/HEAD on the same port (detected from a
//     connection's first four bytes) serves /metrics (OpenMetrics),
//     /healthz, and /varz (the windowed-stats JSON with per-channel
//     totals) — see serve/http.h. Each path records into its own
//     "http.*" window channel.
//   - a watchdog thread samples the `serve.queue_depth` and
//     `obs.trace.dropped` gauges each poll interval, and counts a
//     `serve.swap.stalls` episode when a snapshot publish waits on
//     readers longer than swap_stall_deadline_ms.
//
// Shutdown is bounded by the poll cadence: RequestStop() (or the
// service handling a `shutdown` request, or an external stop flag) is
// observed by the accept loop, the watchdog, and every blocked frame
// read within ~one WireLimits::poll_interval_ms; workers finish the
// request in flight, close their connection, and join.

#ifndef MICTREND_SERVE_SERVER_H_
#define MICTREND_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "serve/access_log.h"
#include "serve/http.h"
#include "serve/service.h"
#include "serve/wire.h"

namespace mic::serve {

struct ServerOptions {
  /// Bind address (IPv4 dotted quad or "localhost").
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read it back with port().
  int port = 0;
  /// Worker threads (= max concurrent connections being served).
  /// Clamped to SnapshotHub::kMaxReaders.
  int num_workers = 4;
  /// Accepted connections allowed to wait for a worker before new ones
  /// are rejected with an `overloaded` error.
  int max_pending = 64;
  /// JSON-lines access log path; empty disables the log.
  std::string access_log_path;
  /// A snapshot publish waiting on readers longer than this counts one
  /// `serve.swap.stalls` episode; <= 0 disables the watchdog check.
  int swap_stall_deadline_ms = 1000;
  WireLimits limits;
};

class TcpServer {
 public:
  /// Binds, listens, and spawns the worker pool. The service must
  /// outlive the server.
  static Result<std::unique_ptr<TcpServer>> Start(
      TrendService* service, const ServerOptions& options);

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;
  /// Stops and joins everything (idempotent with Serve's own cleanup).
  ~TcpServer();

  /// The bound port (resolved when options.port was 0).
  int port() const { return port_; }

  /// Runs the accept loop on the calling thread until a stop condition:
  /// RequestStop(), the service handling a `shutdown` request, or
  /// `external_stop` (may be null) becoming true. Joins the workers
  /// before returning, so when Serve returns the daemon is fully down.
  Status Serve(const std::atomic<bool>* external_stop = nullptr);

  /// Asks the accept loop and every worker to wind down. Safe from any
  /// thread (it is how a signal handler's flag is translated).
  void RequestStop();

 private:
  TcpServer(TrendService* service, const ServerOptions& options,
            int listen_fd, int port);

  void WorkerMain();
  /// Serves one connection until EOF, error, or stop. Transport-level
  /// failures answer with an error envelope where a reply is still
  /// possible.
  void ServeConnection(int fd, const SnapshotReader& reader);
  /// Answers one HTTP GET/HEAD (/metrics, /healthz, /varz) whose
  /// request line began with `prefix`, and returns; HTTP connections
  /// are one-shot.
  void ServeHttp(int fd, const FramePrefix& prefix);
  /// The self-watching loop: queue depth, trace drops, swap-stall
  /// detection. Runs until stop, sampling each poll interval.
  void WatchMain();
  /// "<hex prefix>-<seq>": unique within the process, prefix-distinct
  /// across restarts (seeded from the steady clock at Start).
  std::string NextRequestId();
  /// Stops, joins, drains the pending queue, closes the listen socket.
  /// Idempotent.
  void Shutdown();

  TrendService* service_;
  ServerOptions options_;
  int listen_fd_;
  int port_;

  std::unique_ptr<AccessLog> access_log_;  // null when disabled
  std::string id_prefix_;
  std::atomic<std::uint64_t> request_seq_{0};

  /// Pre-resolved telemetry handles (null without a registry).
  obs::Counter* overload_rejections_ = nullptr;
  obs::Counter* accept_errors_ = nullptr;
  obs::Counter* swap_stalls_ = nullptr;
  obs::Gauge* queue_depth_ = nullptr;
  obs::Gauge* trace_dropped_ = nullptr;

  std::atomic<bool> stop_{false};
  std::mutex mu_;
  std::condition_variable pending_cv_;
  std::deque<int> pending_;  // accepted fds awaiting a worker
  std::vector<std::thread> workers_;
  std::thread watcher_;
  bool joined_ = false;  // guarded by mu_
};

}  // namespace mic::serve

#endif  // MICTREND_SERVE_SERVER_H_
