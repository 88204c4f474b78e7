#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/openmetrics.h"
#include "obs/trace.h"
#include "obs/trace_log.h"

namespace mic::serve {
namespace {

/// Transport-level error envelope (codes the service layer never
/// produces: frame_too_large, overloaded).
JsonValue TransportError(std::string_view code, std::string message) {
  JsonValue error = JsonValue::Object();
  error.Set("code", JsonValue::String(std::string(code)));
  error.Set("message", JsonValue::String(std::move(message)));
  JsonValue response = JsonValue::Object();
  response.Set("ok", JsonValue::Bool(false))
      .Set("error", std::move(error));
  return response;
}

/// Best-effort reply on a path that is closing the connection anyway.
void TryWriteFrame(int fd, const JsonValue& response,
                   std::size_t max_frame_bytes) {
  Status status = WriteFrame(fd, response.Serialize(), max_frame_bytes);
  (void)status;
}

/// Error-envelope code of a response ("" on success envelopes).
std::string ResponseErrorCode(const JsonValue& response) {
  const JsonValue* error = response.Find("error");
  return error == nullptr ? std::string() : error->GetString("code");
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Window channel name for an HTTP target: known endpoints get their
/// own channel, everything else shares "http.other" so arbitrary 404
/// probing cannot grow the channel map without bound.
std::string_view HttpChannelName(std::string_view path) {
  if (path == "/metrics") return "http.metrics";
  if (path == "/healthz") return "http.healthz";
  if (path == "/varz") return "http.varz";
  return "http.other";
}

}  // namespace

Result<std::unique_ptr<TcpServer>> TcpServer::Start(
    TrendService* service, const ServerOptions& options) {
  if (service == nullptr) {
    return Status::InvalidArgument("TcpServer needs a service");
  }
  if (options.port < 0 || options.port > 65535) {
    return Status::InvalidArgument("invalid port " +
                                   std::to_string(options.port));
  }
  if (options.num_workers < 1) {
    return Status::InvalidArgument("num_workers must be at least 1");
  }

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options.port));
  const std::string resolved =
      options.host == "localhost" ? "127.0.0.1" : options.host;
  if (::inet_pton(AF_INET, resolved.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("cannot parse bind address '" +
                                   options.host + "'");
  }
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    return Status::IoError(std::string("socket failed: ") +
                           std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(listen_fd, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const std::string message = std::string("cannot bind ") + resolved +
                                ":" + std::to_string(options.port) + ": " +
                                std::strerror(errno);
    ::close(listen_fd);
    return Status::IoError(message);
  }
  if (::listen(listen_fd, 128) != 0) {
    const std::string message = std::string("listen failed: ") +
                                std::strerror(errno);
    ::close(listen_fd);
    return Status::IoError(message);
  }
  struct sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd,
                    reinterpret_cast<struct sockaddr*>(&bound),
                    &bound_len) != 0) {
    const std::string message = std::string("getsockname failed: ") +
                                std::strerror(errno);
    ::close(listen_fd);
    return Status::IoError(message);
  }
  const int port = static_cast<int>(ntohs(bound.sin_port));

  ServerOptions clamped = options;
  if (clamped.num_workers > SnapshotHub::kMaxReaders) {
    clamped.num_workers = SnapshotHub::kMaxReaders;
  }
  auto server = std::unique_ptr<TcpServer>(
      new TcpServer(service, clamped, listen_fd, port));
  if (!clamped.access_log_path.empty()) {
    MIC_ASSIGN_OR_RETURN(server->access_log_,
                         AccessLog::Open(clamped.access_log_path));
  }
  // Request-id prefix: low bits of the steady clock, so ids from
  // different daemon runs against the same access log stay distinct.
  server->id_prefix_ = StrFormat(
      "%06llx",
      static_cast<unsigned long long>(
          std::chrono::steady_clock::now().time_since_epoch().count() &
          0xffffff));
  obs::MetricsRegistry* metrics = service->metrics();
  server->overload_rejections_ =
      obs::GetCounter(metrics, "serve.overload_rejections");
  server->swap_stalls_ = obs::GetCounter(metrics, "serve.swap.stalls");
  server->queue_depth_ = obs::GetGauge(metrics, "serve.queue_depth");
  server->trace_dropped_ = obs::GetGauge(metrics, "obs.trace.dropped");
  server->trace_retained_ = obs::GetGauge(metrics, "obs.trace.retained");
  server->drop_window_ =
      service->windows()->channel("obs.trace.dropped");
  server->workers_.reserve(
      static_cast<std::size_t>(clamped.num_workers));
  for (int i = 0; i < clamped.num_workers; ++i) {
    server->workers_.emplace_back([raw = server.get()] {
      raw->WorkerMain();
    });
  }
  server->watcher_ = std::thread([raw = server.get()] {
    raw->WatchMain();
  });
  return server;
}

TcpServer::TcpServer(TrendService* service, const ServerOptions& options,
                     int listen_fd, int port)
    : service_(service),
      options_(options),
      listen_fd_(listen_fd),
      port_(port) {}

TcpServer::~TcpServer() { Shutdown(); }

void TcpServer::RequestStop() {
  stop_.store(true, std::memory_order_seq_cst);
  pending_cv_.notify_all();
}

Status TcpServer::Serve(const std::atomic<bool>* external_stop) {
  while (!stop_.load(std::memory_order_seq_cst)) {
    if (service_->shutdown_requested() ||
        (external_stop != nullptr &&
         external_stop->load(std::memory_order_seq_cst))) {
      break;
    }
    struct pollfd pfd;
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int ready = ::poll(&pfd, 1, options_.limits.poll_interval_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      RequestStop();
      Shutdown();
      return Status::IoError(std::string("accept poll failed: ") +
                             std::strerror(errno));
    }
    if (ready == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        continue;
      }
      RequestStop();
      Shutdown();
      return Status::IoError(std::string("accept failed: ") +
                             std::strerror(errno));
    }
    // Framed or HTTP, every reply is one send, but a reply longer than
    // one segment still ends in a short one, which Nagle's algorithm
    // holds until the client ACKs the rest.
    if (Status nodelay = SetNoDelay(fd); !nodelay.ok()) {
      MIC_LOG(Warning) << "serving a connection without TCP_NODELAY: "
                       << nodelay;
    }
    bool rejected = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (pending_.size() >=
          static_cast<std::size_t>(options_.max_pending)) {
        rejected = true;
      } else {
        pending_.push_back(fd);
      }
    }
    if (rejected) {
      obs::Increment(overload_rejections_);
      TryWriteFrame(fd,
                    TransportError("overloaded",
                                   "connection queue is full; retry"),
                    options_.limits.max_frame_bytes);
      ::close(fd);
      if (access_log_ != nullptr) {
        AccessRecord record;
        record.id = NextRequestId();
        record.endpoint = "connect";
        record.error = "overloaded";
        access_log_->Write(record);
      }
      continue;
    }
    pending_cv_.notify_one();
  }
  RequestStop();
  Shutdown();
  return Status::OK();
}

void TcpServer::WorkerMain() {
  auto reader = service_->hub().Register();
  if (!reader.ok()) {
    // Start() clamps num_workers to the slot count, so this only
    // happens when something else exhausted the hub; log and bail.
    MIC_LOG(Warning) << "serve worker could not register a snapshot "
                        "reader: "
                     << reader.status();
    return;
  }
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(mu_);
      pending_cv_.wait(lock, [this] {
        return stop_.load(std::memory_order_seq_cst) || !pending_.empty();
      });
      if (stop_.load(std::memory_order_seq_cst)) return;
      fd = pending_.front();
      pending_.pop_front();
    }
    ServeConnection(fd, *reader);
    ::close(fd);
  }
}

void TcpServer::ServeConnection(int fd, const SnapshotReader& reader) {
  obs::TraceLog* trace = service_->trace();
  for (bool first = true;; first = false) {
    Result<FramePrefix> prefix =
        ReadFramePrefix(fd, options_.limits, &stop_);
    if (!prefix.ok()) return;  // clean EOF, stop, timeout, torn prefix
    // A connection's first four bytes pick its transport, before the
    // length check: an HTTP request line read as a big-endian frame
    // length would be ~1.2 GB and trip frame_too_large.
    if (first && IsHttpPrefix(*prefix)) {
      ServeHttp(fd, *prefix);
      return;
    }
    Result<std::string> payload =
        ReadFramePayload(fd, *prefix, options_.limits, &stop_);
    if (!payload.ok()) {
      const Status status = payload.status();
      if (status.code() == StatusCode::kFailedPrecondition &&
          !stop_.load(std::memory_order_seq_cst)) {
        // Oversized frame: a protocol violation worth answering before
        // hanging up (the peer's stream position is unrecoverable).
        TryWriteFrame(fd,
                      TransportError("frame_too_large", status.message()),
                      options_.limits.max_frame_bytes);
        if (access_log_ != nullptr) {
          AccessRecord record;
          record.id = NextRequestId();
          record.endpoint = "frame";
          record.error = "frame_too_large";
          access_log_->Write(record);
        }
      }
      return;  // clean EOF, stop, timeout, or torn frame: just close
    }
    const std::string rid = NextRequestId();
    const std::uint64_t trace_mark =
        trace == nullptr ? 0 : trace->ThreadMark();
    const auto start = std::chrono::steady_clock::now();
    Result<JsonValue> request = JsonValue::Parse(*payload);
    JsonValue response;
    std::string endpoint = "invalid";
    if (!request.ok()) {
      response = TransportError("bad_request", request.status().message());
    } else {
      endpoint = request->GetString("op");
      // Stack-only span: everything the service traces for this
      // request nests under "req/<id>/...", tying the trace ring to
      // the access-log line with the same id.
      obs::Span request_span("req/" + rid);
      response = service_->Handle(*request, reader);
    }
    const std::string body = response.Serialize();
    const Status write_status =
        WriteFrame(fd, body, options_.limits.max_frame_bytes);
    const double seconds = SecondsSince(start);
    if (trace != nullptr && options_.slow_request_threshold_ms > 0 &&
        seconds * 1000.0 >=
            static_cast<double>(options_.slow_request_threshold_ms)) {
      trace->RetainSince(trace_mark, rid);
    }
    if (access_log_ != nullptr) {
      AccessRecord record;
      record.id = rid;
      record.endpoint = endpoint;
      record.ok = response.GetBool("ok", false);
      if (!record.ok) record.error = ResponseErrorCode(response);
      record.latency_seconds = seconds;
      record.version = response.GetInt("version", -1);
      // +4 on each side for the length prefix.
      record.bytes_in = payload->size() + 4;
      record.bytes_out = body.size() + 4;
      access_log_->Write(record);
    }
    if (!write_status.ok()) return;
    if (service_->shutdown_requested()) {
      // The response to the shutdown request is on the wire; let the
      // accept loop and the other workers observe the flag.
      RequestStop();
      return;
    }
  }
}

void TcpServer::ServeHttp(int fd, const FramePrefix& prefix) {
  const auto start = std::chrono::steady_clock::now();
  Result<HttpRequest> request =
      ReadHttpRequest(fd, prefix, options_.limits, &stop_);
  if (!request.ok()) {
    (void)SendAll(fd, BuildHttpResponse(400, "Bad Request", "text/plain",
                                        "bad request\n"));
    return;
  }
  const std::string path =
      request->target.substr(0, request->target.find('?'));
  int status = 200;
  std::string_view reason = "OK";
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
  if (path == "/healthz") {
    body = "ok\n";
  } else if (path == "/metrics") {
    content_type =
        "application/openmetrics-text; version=1.0.0; charset=utf-8";
    body = obs::RenderOpenMetrics(service_->metrics(),
                                  service_->windows());
  } else if (path == "/varz") {
    content_type = "application/json; charset=utf-8";
    body = service_->windows()->ToJson();
    body += '\n';
  } else {
    status = 404;
    reason = "Not Found";
    body = "not found\n";
  }
  const std::string response = BuildHttpResponse(
      status, reason, content_type, body, request->method == "HEAD");
  const Status sent = SendAll(fd, response);
  const double seconds = SecondsSince(start);
  // Scrapes are periodic, so resolving the channel by name per request
  // (one mutex hop) is fine here, unlike the framed hot path.
  obs::Record(service_->windows()->channel(HttpChannelName(path)),
              seconds, status >= 400 || !sent.ok());
  if (access_log_ != nullptr) {
    AccessRecord record;
    record.id = NextRequestId();
    record.transport = "http";
    record.endpoint = path;
    record.ok = status < 400 && sent.ok();
    if (status == 404) record.error = "not_found";
    record.latency_seconds = seconds;
    record.bytes_in = request->bytes;
    record.bytes_out = response.size();
    access_log_->Write(record);
  }
}

void TcpServer::WatchMain() {
  obs::TraceLog* trace = service_->trace();
  obs::WindowRegistry* windows = service_->windows();
  std::uint64_t last_dropped =
      trace == nullptr ? 0 : trace->dropped_count();
  // Swap-start stamp already counted as a stall, so one stuck drain is
  // one serve.swap.stalls increment no matter how long it lasts.
  std::uint64_t counted_stall_stamp = 0;
  const int interval_ms = options_.limits.poll_interval_ms > 0
                              ? options_.limits.poll_interval_ms
                              : 100;
  while (!stop_.load(std::memory_order_seq_cst)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    std::size_t depth = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      depth = pending_.size();
    }
    obs::Set(queue_depth_, static_cast<double>(depth));
    if (trace != nullptr) {
      const std::uint64_t dropped = trace->dropped_count();
      obs::Set(trace_dropped_, static_cast<double>(dropped));
      obs::Set(trace_retained_,
               static_cast<double>(trace->retained_count()));
      if (dropped > last_dropped) {
        obs::AddCount(drop_window_, dropped - last_dropped);
        last_dropped = dropped;
      }
    }
    if (options_.swap_stall_deadline_ms > 0) {
      const std::uint64_t started = service_->swap_started_ns();
      if (started != 0 && started != counted_stall_stamp) {
        const std::uint64_t now = windows->NowNs();
        const std::uint64_t waited_ms =
            now > started ? (now - started) / 1000000ull : 0;
        if (waited_ms >=
            static_cast<std::uint64_t>(options_.swap_stall_deadline_ms)) {
          obs::Increment(swap_stalls_);
          counted_stall_stamp = started;
          MIC_LOG(Warning)
              << "snapshot swap has been draining for " << waited_ms
              << " ms (a reader is likely holding a pin)";
        }
      }
    }
  }
}

std::string TcpServer::NextRequestId() {
  return id_prefix_ + '-' +
         std::to_string(
             request_seq_.fetch_add(1, std::memory_order_relaxed) + 1);
}

void TcpServer::Shutdown() {
  RequestStop();
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (joined_) return;
    joined_ = true;
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  if (watcher_.joinable()) watcher_.join();
  std::deque<int> leftover;
  {
    std::lock_guard<std::mutex> lock(mu_);
    leftover.swap(pending_);
  }
  for (const int fd : leftover) ::close(fd);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

}  // namespace mic::serve
