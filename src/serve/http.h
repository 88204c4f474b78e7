// Minimal HTTP/1.1 GET support on the daemon's TCP port — the
// exposition surface (/metrics, /healthz, /varz) and the first step
// toward the ROADMAP HTTP gateway.
//
// The daemon multiplexes HTTP onto the framed-JSON port by reading the
// first four bytes of a fresh connection as a frame prefix
// (ReadFramePrefix) and branching on them: "GET " or "HEAD" starts an
// HTTP request line and goes to ReadHttpRequest with those bytes;
// anything else is a frame length. The branch has to come before the
// length check — "GET " read as a big-endian length would be ~1.2 GB
// and trip frame_too_large.
//
// Scope is deliberately tiny: GET/HEAD only, request head bounded at
// 8 KiB, response always carries Content-Length and Connection: close
// (one request per connection — scrapes are periodic, not chatty).
// POST bodies, chunked encoding, and keep-alive belong to the future
// gateway, not here.

#ifndef MICTREND_SERVE_HTTP_H_
#define MICTREND_SERVE_HTTP_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "serve/wire.h"

namespace mic::serve {

/// Parsed HTTP request line (headers are read to the blank line and
/// discarded — no current endpoint needs them).
struct HttpRequest {
  std::string method;  // "GET" or "HEAD"
  std::string target;  // as sent, query string included
  /// Bytes consumed off the socket for the whole request head.
  std::uint64_t bytes = 0;
};

/// True when a connection's first four bytes spell the start of an HTTP
/// GET/HEAD request line rather than a frame length.
bool IsHttpPrefix(const FramePrefix& prefix);

/// Reads the rest of one request head that began with `prefix` (through
/// the CRLFCRLF terminator, capped at 8 KiB) and parses the request
/// line. FailedPrecondition on an oversized or malformed head.
Result<HttpRequest> ReadHttpRequest(int fd, const FramePrefix& prefix,
                                    const WireLimits& limits,
                                    const std::atomic<bool>* stop);

/// Serializes a full response. `head_only` (HEAD requests) keeps the
/// Content-Length of the would-be body but omits the body itself.
std::string BuildHttpResponse(int status, std::string_view reason,
                              std::string_view content_type,
                              std::string_view body,
                              bool head_only = false);

}  // namespace mic::serve

#endif  // MICTREND_SERVE_HTTP_H_
