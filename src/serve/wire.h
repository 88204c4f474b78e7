// The mictrend serve wire layer: length-prefixed JSON frames over a
// byte stream, plus the minimal JSON document model the protocol
// speaks.
//
// Framing (normative; docs/serve_protocol.md is the client-facing
// reference): every message — request or response — is one frame,
//
//   [ 4-byte big-endian unsigned payload length | payload bytes ]
//
// where the payload is a single UTF-8 JSON object. A frame longer than
// the receiver's limit is a protocol error: the server answers with a
// `frame_too_large` error envelope and closes the connection, so a
// misbehaving client cannot make it buffer unbounded input.
//
// JsonValue is deliberately small: objects preserve insertion order
// (serialization is therefore deterministic — the same document always
// produces the same bytes), numbers distinguish integers from doubles
// so 64-bit counters round-trip exactly, and parsing enforces a depth
// limit. It is not a general-purpose JSON library; it is exactly what
// the protocol needs, with zero dependencies.
//
// The fd-based helpers (ReadFrame/WriteFrame/SendAll/ConnectTcp) are
// POSIX-only like the rest of the serve layer. ReadFrame polls in short
// intervals so a blocked reader observes a stop flag within ~one
// interval, which is what makes graceful shutdown bounded.
//
// Every byte the serve layer sends goes through SendAll: a whole frame
// (prefix plus payload) leaves in one gather sendmsg(2), and every
// socket it writes to has TCP_NODELAY set (SetNoDelay). Sent as two
// writes, the payload would wait under Nagle's algorithm for the ACK
// of the 4-byte prefix, which the peer delays by ~40 ms.

#ifndef MICTREND_SERVE_WIRE_H_
#define MICTREND_SERVE_WIRE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace mic::serve {

/// One JSON document node. Objects keep member insertion order, so
/// Serialize() is deterministic for a deterministically built document.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool value);
  static JsonValue Number(double value);
  static JsonValue Int(std::int64_t value);
  static JsonValue String(std::string value);
  static JsonValue Array();
  static JsonValue Object();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool bool_value() const { return bool_; }
  /// Numeric value as a double (integers convert).
  double number_value() const;
  /// Numeric value as an integer (doubles truncate).
  std::int64_t int_value() const;
  const std::string& string_value() const { return string_; }
  const std::vector<JsonValue>& items() const { return items_; }
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }

  /// Object member by key, or null when absent / not an object.
  const JsonValue* Find(std::string_view key) const;

  /// Sets (or replaces) an object member; returns *this for chaining.
  JsonValue& Set(std::string_view key, JsonValue value);
  /// Appends an array element; returns *this for chaining.
  JsonValue& Append(JsonValue value);

  /// Typed member readers with fallbacks (missing member or wrong type
  /// yields the fallback).
  std::string GetString(std::string_view key,
                        std::string_view fallback = "") const;
  std::int64_t GetInt(std::string_view key, std::int64_t fallback) const;
  double GetDouble(std::string_view key, double fallback) const;
  bool GetBool(std::string_view key, bool fallback) const;

  /// Compact deterministic serialization (no whitespace; object members
  /// in insertion order; integers print without a decimal point,
  /// doubles with %.17g so they round-trip).
  std::string Serialize() const;
  void SerializeTo(std::string& out) const;

  /// Strict parse of exactly one JSON document (trailing garbage is an
  /// error). Depth is limited to 64 nested containers.
  static Result<JsonValue> Parse(std::string_view text);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  bool number_is_int_ = false;
  double number_ = 0.0;
  std::int64_t int_ = 0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Receiver-side limits and the poll cadence of the blocking reads.
struct WireLimits {
  /// Largest acceptable frame payload. The default fits any report this
  /// library produces with two orders of magnitude to spare.
  std::size_t max_frame_bytes = 8u << 20;  // 8 MiB
  /// How often a blocked ReadFrame rechecks the stop flag.
  int poll_interval_ms = 100;
  /// Overall deadline for one ReadFrame (0 = wait forever). Clients set
  /// this; the server waits forever and relies on the stop flag.
  int timeout_ms = 0;
};

/// Sends `head` then `body` on socket `fd`, in one gather sendmsg(2)
/// per attempt, looping on partial writes. MSG_NOSIGNAL makes a peer
/// that has gone away an IoError instead of a SIGPIPE that would kill
/// the process.
Status SendAll(int fd, std::string_view head, std::string_view body = {});

/// Sets TCP_NODELAY on a connected TCP socket. Without it a small
/// reply can sit in the kernel until the peer's delayed ACK arrives.
Status SetNoDelay(int fd);

/// Writes one frame (length prefix + payload) with a single SendAll.
/// Fails with InvalidArgument when the payload exceeds
/// `max_frame_bytes`, IoError on a failed write or a closed peer.
Status WriteFrame(int fd, std::string_view payload,
                  std::size_t max_frame_bytes = WireLimits{}.max_frame_bytes);

/// The 4-byte big-endian length prefix that opens every frame.
using FramePrefix = std::array<char, 4>;

/// Reads the next frame's length prefix: the first half of ReadFrame,
/// for a receiver that branches on a connection's first bytes (the
/// daemon's HTTP check). Outcomes as ReadFrame's, except that the
/// declared length is not checked yet.
Result<FramePrefix> ReadFramePrefix(int fd, const WireLimits& limits = {},
                                    const std::atomic<bool>* stop = nullptr);

/// Reads the payload `prefix` announces: the second half of ReadFrame.
/// FailedPrecondition when the declared length exceeds
/// limits.max_frame_bytes; EOF before the last byte is an IoError.
Result<std::string> ReadFramePayload(int fd, const FramePrefix& prefix,
                                     const WireLimits& limits = {},
                                     const std::atomic<bool>* stop = nullptr);

/// Reads one frame payload. Outcomes:
///   - OK: one complete payload;
///   - NotFound: the peer closed the stream cleanly before any byte of
///     a new frame (normal end of a connection);
///   - FailedPrecondition: the declared length exceeds
///     limits.max_frame_bytes (protocol violation — close the
///     connection after answering);
///   - OutOfRange: limits.timeout_ms elapsed;
///   - IoError: torn frame (EOF mid-frame) or a read error.
/// `stop` (may be null) is checked every poll interval; a set flag
/// aborts the read with FailedPrecondition("stopped").
Result<std::string> ReadFrame(int fd, const WireLimits& limits = {},
                              const std::atomic<bool>* stop = nullptr);

/// Connects to host:port (IPv4 dotted quad or "localhost") and sets
/// TCP_NODELAY. Returns the connected socket fd; the caller owns it
/// (close(2) when done).
Result<int> ConnectTcp(const std::string& host, int port);

/// Client convenience: serialize `request`, write it as one frame, read
/// one response frame, parse it. The fd stays open for further calls.
Result<JsonValue> RoundTrip(int fd, const JsonValue& request,
                            const WireLimits& limits = {});

}  // namespace mic::serve

#endif  // MICTREND_SERVE_WIRE_H_
