#include "serve/http.h"

#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <cstring>

#include "common/strings.h"

namespace mic::serve {
namespace {

constexpr std::size_t kMaxHeadBytes = 8192;

bool Stopped(const std::atomic<bool>* stop) {
  return stop != nullptr && stop->load(std::memory_order_seq_cst);
}

/// Waits for readability within the poll cadence. OK(true) = readable,
/// OK(false) = keep waiting, error = stop/poll failure.
Result<bool> WaitReadable(int fd, const WireLimits& limits,
                          const std::atomic<bool>* stop) {
  if (Stopped(stop)) {
    return Status::FailedPrecondition("server is stopping");
  }
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = POLLIN;
  pfd.revents = 0;
  const int ready = ::poll(&pfd, 1, limits.poll_interval_ms);
  if (ready < 0) {
    if (errno == EINTR) return false;
    return Status::IoError(std::string("poll failed: ") +
                           std::strerror(errno));
  }
  return ready > 0;
}

}  // namespace

bool IsHttpPrefix(const FramePrefix& prefix) {
  const std::string_view head(prefix.data(), prefix.size());
  return head == "GET " || head == "HEAD";
}

Result<HttpRequest> ReadHttpRequest(int fd, const FramePrefix& prefix,
                                    const WireLimits& limits,
                                    const std::atomic<bool>* stop) {
  std::string head(prefix.data(), prefix.size());
  while (head.find("\r\n\r\n") == std::string::npos) {
    if (head.size() >= kMaxHeadBytes) {
      return Status::FailedPrecondition(
          "HTTP request head exceeds " + std::to_string(kMaxHeadBytes) +
          " bytes");
    }
    MIC_ASSIGN_OR_RETURN(const bool readable,
                         WaitReadable(fd, limits, stop));
    if (!readable) continue;
    char buffer[1024];
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n == 0) {
      return Status::FailedPrecondition(
          "connection closed mid HTTP request");
    }
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        continue;
      }
      return Status::IoError(std::string("recv failed: ") +
                             std::strerror(errno));
    }
    head.append(buffer, static_cast<std::size_t>(n));
  }

  const std::size_t line_end = head.find("\r\n");
  const std::string request_line = head.substr(0, line_end);
  const std::size_t method_end = request_line.find(' ');
  const std::size_t target_end =
      method_end == std::string::npos
          ? std::string::npos
          : request_line.find(' ', method_end + 1);
  if (method_end == std::string::npos ||
      target_end == std::string::npos) {
    return Status::FailedPrecondition("malformed HTTP request line '" +
                                      request_line + "'");
  }
  HttpRequest request;
  request.method = request_line.substr(0, method_end);
  request.target =
      request_line.substr(method_end + 1, target_end - method_end - 1);
  request.bytes = head.size();
  if (request.method != "GET" && request.method != "HEAD") {
    return Status::FailedPrecondition("unsupported HTTP method '" +
                                      request.method + "'");
  }
  if (request.target.empty() || request.target[0] != '/') {
    return Status::FailedPrecondition("malformed HTTP target '" +
                                      request.target + "'");
  }
  return request;
}

std::string BuildHttpResponse(int status, std::string_view reason,
                              std::string_view content_type,
                              std::string_view body, bool head_only) {
  std::string response = StrFormat("HTTP/1.1 %d ", status);
  response += reason;
  response += "\r\nContent-Type: ";
  response += content_type;
  response += StrFormat(
      "\r\nContent-Length: %llu\r\nConnection: close\r\n\r\n",
      static_cast<unsigned long long>(body.size()));
  if (!head_only) response += body;
  return response;
}

}  // namespace mic::serve
