#include "serve/wire.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>

#include "common/strings.h"

namespace mic::serve {
namespace {

constexpr int kMaxParseDepth = 64;

// ---------------------------------------------------------------- parser

struct Parser {
  std::string_view text;
  std::size_t pos = 0;

  bool AtEnd() const { return pos >= text.size(); }
  char Peek() const { return text[pos]; }

  void SkipWhitespace() {
    while (!AtEnd()) {
      const char c = text[pos];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos;
      } else {
        break;
      }
    }
  }

  Status Error(const std::string& message) const {
    return Status::InvalidArgument("json parse error at byte " +
                                   std::to_string(pos) + ": " + message);
  }

  Result<JsonValue> ParseValue(int depth) {
    if (depth > kMaxParseDepth) return Error("nesting too deep");
    SkipWhitespace();
    if (AtEnd()) return Error("unexpected end of input");
    const char c = Peek();
    switch (c) {
      case '{':
        return ParseObject(depth);
      case '[':
        return ParseArray(depth);
      case '"': {
        MIC_ASSIGN_OR_RETURN(std::string text_value, ParseString());
        return JsonValue::String(std::move(text_value));
      }
      case 't':
        return ParseLiteral("true", JsonValue::Bool(true));
      case 'f':
        return ParseLiteral("false", JsonValue::Bool(false));
      case 'n':
        return ParseLiteral("null", JsonValue::Null());
      default:
        return ParseNumber();
    }
  }

  Result<JsonValue> ParseLiteral(std::string_view literal, JsonValue value) {
    if (text.substr(pos, literal.size()) != literal) {
      return Error("invalid literal");
    }
    pos += literal.size();
    return value;
  }

  Result<JsonValue> ParseObject(int depth) {
    ++pos;  // '{'
    JsonValue object = JsonValue::Object();
    SkipWhitespace();
    if (!AtEnd() && Peek() == '}') {
      ++pos;
      return object;
    }
    while (true) {
      SkipWhitespace();
      if (AtEnd() || Peek() != '"') return Error("expected member key");
      MIC_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      if (AtEnd() || Peek() != ':') return Error("expected ':'");
      ++pos;
      MIC_ASSIGN_OR_RETURN(JsonValue value, ParseValue(depth + 1));
      object.Set(key, std::move(value));
      SkipWhitespace();
      if (AtEnd()) return Error("unterminated object");
      if (Peek() == ',') {
        ++pos;
        continue;
      }
      if (Peek() == '}') {
        ++pos;
        return object;
      }
      return Error("expected ',' or '}'");
    }
  }

  Result<JsonValue> ParseArray(int depth) {
    ++pos;  // '['
    JsonValue array = JsonValue::Array();
    SkipWhitespace();
    if (!AtEnd() && Peek() == ']') {
      ++pos;
      return array;
    }
    while (true) {
      MIC_ASSIGN_OR_RETURN(JsonValue value, ParseValue(depth + 1));
      array.Append(std::move(value));
      SkipWhitespace();
      if (AtEnd()) return Error("unterminated array");
      if (Peek() == ',') {
        ++pos;
        continue;
      }
      if (Peek() == ']') {
        ++pos;
        return array;
      }
      return Error("expected ',' or ']'");
    }
  }

  Result<std::string> ParseString() {
    ++pos;  // '"'
    std::string out;
    while (true) {
      if (AtEnd()) return Error("unterminated string");
      const char c = text[pos++];
      if (c == '"') return out;
      if (c == '\\') {
        if (AtEnd()) return Error("unterminated escape");
        const char escape = text[pos++];
        switch (escape) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos + 4 > text.size()) return Error("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text[pos++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return Error("invalid \\u escape");
              }
            }
            // UTF-8 encode the BMP code point (surrogate pairs are not
            // needed by this protocol; encode them as-is).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            return Error("invalid escape");
        }
        continue;
      }
      out += c;
    }
  }

  Result<JsonValue> ParseNumber() {
    const std::size_t start = pos;
    if (!AtEnd() && (Peek() == '-' || Peek() == '+')) ++pos;
    bool is_double = false;
    while (!AtEnd()) {
      const char c = Peek();
      if (c >= '0' && c <= '9') {
        ++pos;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '-' || c == '+') {
        // '-'/'+' only valid inside an exponent, which ParseDouble
        // validates; accept the character class here.
        is_double = is_double || c == '.' || c == 'e' || c == 'E';
        ++pos;
      } else {
        break;
      }
    }
    const std::string_view token = text.substr(start, pos - start);
    if (token.empty()) return Error("expected value");
    if (!is_double) {
      if (auto parsed = ParseInt64(token); parsed.ok()) {
        return JsonValue::Int(*parsed);
      }
      // Out-of-range integer literal: fall through to double.
    }
    auto parsed = ParseDouble(token);
    if (!parsed.ok()) return Error("invalid number");
    return JsonValue::Number(*parsed);
  }
};

void AppendNumber(std::string& out, bool is_int, std::int64_t int_value,
                  double double_value) {
  if (is_int) {
    out += StrFormat("%lld", static_cast<long long>(int_value));
    return;
  }
  if (!std::isfinite(double_value)) {
    // JSON has no Infinity/NaN; null is the conventional degradation.
    out += "null";
    return;
  }
  out += StrFormat("%.17g", double_value);
}

// ------------------------------------------------------------- fd helpers

/// Reads exactly `size` bytes, polling so `stop` and the deadline are
/// observed. `saw_any` reports whether at least one byte arrived (to
/// distinguish clean EOF from a torn frame).
Status ReadAll(int fd, void* data, std::size_t size,
               const WireLimits& limits, const std::atomic<bool>* stop,
               bool* saw_any) {
  char* cursor = static_cast<char*>(data);
  std::size_t remaining = size;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(limits.timeout_ms);
  while (remaining > 0) {
    if (stop != nullptr && stop->load(std::memory_order_acquire)) {
      return Status::FailedPrecondition("stopped");
    }
    if (limits.timeout_ms > 0 &&
        std::chrono::steady_clock::now() >= deadline) {
      return Status::OutOfRange("read timed out");
    }
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int ready = ::poll(&pfd, 1, limits.poll_interval_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("poll failed: ") +
                             std::strerror(errno));
    }
    if (ready == 0) continue;  // poll tick: recheck stop/deadline
    const ssize_t got = ::read(fd, cursor, remaining);
    if (got < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        continue;
      }
      return Status::IoError(std::string("read failed: ") +
                             std::strerror(errno));
    }
    if (got == 0) {
      return Status::IoError(*saw_any ? "eof mid-frame" : "eof");
    }
    *saw_any = true;
    cursor += got;
    remaining -= static_cast<std::size_t>(got);
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------- JsonValue

JsonValue JsonValue::Bool(bool value) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = value;
  return v;
}

JsonValue JsonValue::Number(double value) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_is_int_ = false;
  v.number_ = value;
  return v;
}

JsonValue JsonValue::Int(std::int64_t value) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_is_int_ = true;
  v.int_ = value;
  return v;
}

JsonValue JsonValue::String(std::string value) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(value);
  return v;
}

JsonValue JsonValue::Array() {
  JsonValue v;
  v.kind_ = Kind::kArray;
  return v;
}

JsonValue JsonValue::Object() {
  JsonValue v;
  v.kind_ = Kind::kObject;
  return v;
}

double JsonValue::number_value() const {
  return number_is_int_ ? static_cast<double>(int_) : number_;
}

std::int64_t JsonValue::int_value() const {
  return number_is_int_ ? int_ : static_cast<std::int64_t>(number_);
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

JsonValue& JsonValue::Set(std::string_view key, JsonValue value) {
  kind_ = Kind::kObject;
  for (auto& [name, existing] : members_) {
    if (name == key) {
      existing = std::move(value);
      return *this;
    }
  }
  members_.emplace_back(std::string(key), std::move(value));
  return *this;
}

JsonValue& JsonValue::Append(JsonValue value) {
  kind_ = Kind::kArray;
  items_.push_back(std::move(value));
  return *this;
}

std::string JsonValue::GetString(std::string_view key,
                                 std::string_view fallback) const {
  const JsonValue* member = Find(key);
  if (member == nullptr || !member->is_string()) {
    return std::string(fallback);
  }
  return member->string_value();
}

std::int64_t JsonValue::GetInt(std::string_view key,
                               std::int64_t fallback) const {
  const JsonValue* member = Find(key);
  if (member == nullptr || !member->is_number()) return fallback;
  return member->int_value();
}

double JsonValue::GetDouble(std::string_view key, double fallback) const {
  const JsonValue* member = Find(key);
  if (member == nullptr || !member->is_number()) return fallback;
  return member->number_value();
}

bool JsonValue::GetBool(std::string_view key, bool fallback) const {
  const JsonValue* member = Find(key);
  if (member == nullptr || !member->is_bool()) return fallback;
  return member->bool_value();
}

void JsonValue::SerializeTo(std::string& out) const {
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      return;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      return;
    case Kind::kNumber:
      AppendNumber(out, number_is_int_, int_, number_);
      return;
    case Kind::kString:
      out += '"';
      AppendJsonEscaped(out, string_);
      out += '"';
      return;
    case Kind::kArray: {
      out += '[';
      bool first = true;
      for (const JsonValue& item : items_) {
        if (!first) out += ',';
        first = false;
        item.SerializeTo(out);
      }
      out += ']';
      return;
    }
    case Kind::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [name, value] : members_) {
        if (!first) out += ',';
        first = false;
        out += '"';
        AppendJsonEscaped(out, name);
        out += "\":";
        value.SerializeTo(out);
      }
      out += '}';
      return;
    }
  }
}

std::string JsonValue::Serialize() const {
  std::string out;
  SerializeTo(out);
  return out;
}

Result<JsonValue> JsonValue::Parse(std::string_view text) {
  Parser parser{text};
  MIC_ASSIGN_OR_RETURN(JsonValue value, parser.ParseValue(0));
  parser.SkipWhitespace();
  if (!parser.AtEnd()) return parser.Error("trailing garbage");
  return value;
}

// ----------------------------------------------------------------- framing

Status SendAll(int fd, std::string_view head, std::string_view body) {
  struct iovec parts[2];
  parts[0].iov_base = const_cast<char*>(head.data());
  parts[0].iov_len = head.size();
  parts[1].iov_base = const_cast<char*>(body.data());
  parts[1].iov_len = body.size();
  struct iovec* next = parts;
  std::size_t count = 2;
  for (;;) {
    while (count > 0 && next->iov_len == 0) {
      ++next;
      --count;
    }
    if (count == 0) return Status::OK();
    struct msghdr message;
    std::memset(&message, 0, sizeof(message));
    message.msg_iov = next;
    message.msg_iovlen = count;
    const ssize_t sent = ::sendmsg(fd, &message, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("send failed: ") +
                             std::strerror(errno));
    }
    if (sent == 0) return Status::IoError("send returned 0");
    // Drop the bytes the kernel took; a partial send leaves `next`
    // pointing into the middle of a part.
    std::size_t taken = static_cast<std::size_t>(sent);
    while (taken > 0) {
      const std::size_t step = std::min(taken, next->iov_len);
      next->iov_base = static_cast<char*>(next->iov_base) + step;
      next->iov_len -= step;
      taken -= step;
      if (next->iov_len == 0) {
        ++next;
        --count;
      }
    }
  }
}

Status SetNoDelay(int fd) {
  const int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0) {
    return Status::IoError(std::string("setting TCP_NODELAY failed: ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

Status WriteFrame(int fd, std::string_view payload,
                  std::size_t max_frame_bytes) {
  if (payload.size() > max_frame_bytes) {
    return Status::InvalidArgument(
        "frame payload of " + std::to_string(payload.size()) +
        " bytes exceeds the " + std::to_string(max_frame_bytes) +
        "-byte limit");
  }
  const std::uint32_t length =
      htonl(static_cast<std::uint32_t>(payload.size()));
  FramePrefix prefix{};
  std::memcpy(prefix.data(), &length, prefix.size());
  return SendAll(fd, std::string_view(prefix.data(), prefix.size()),
                 payload);
}

Result<FramePrefix> ReadFramePrefix(int fd, const WireLimits& limits,
                                    const std::atomic<bool>* stop) {
  FramePrefix prefix{};
  bool saw_any = false;
  Status status =
      ReadAll(fd, prefix.data(), prefix.size(), limits, stop, &saw_any);
  if (!status.ok()) {
    if (status.code() == StatusCode::kIoError && !saw_any) {
      return Status::NotFound("connection closed");
    }
    return status;
  }
  return prefix;
}

Result<std::string> ReadFramePayload(int fd, const FramePrefix& prefix,
                                     const WireLimits& limits,
                                     const std::atomic<bool>* stop) {
  std::uint32_t length = 0;
  std::memcpy(&length, prefix.data(), prefix.size());
  length = ntohl(length);
  if (length > limits.max_frame_bytes) {
    return Status::FailedPrecondition(
        "declared frame length " + std::to_string(length) +
        " exceeds the " + std::to_string(limits.max_frame_bytes) +
        "-byte limit");
  }
  std::string payload(length, '\0');
  if (length > 0) {
    bool saw_any = true;  // the prefix arrived, so EOF now tears the frame
    MIC_RETURN_IF_ERROR(
        ReadAll(fd, payload.data(), length, limits, stop, &saw_any));
  }
  return payload;
}

Result<std::string> ReadFrame(int fd, const WireLimits& limits,
                              const std::atomic<bool>* stop) {
  MIC_ASSIGN_OR_RETURN(const FramePrefix prefix,
                       ReadFramePrefix(fd, limits, stop));
  return ReadFramePayload(fd, prefix, limits, stop);
}

Result<int> ConnectTcp(const std::string& host, int port) {
  if (port <= 0 || port > 65535) {
    return Status::InvalidArgument("invalid port " + std::to_string(port));
  }
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  const std::string resolved = host == "localhost" ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, resolved.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("cannot parse host address '" + host +
                                   "' (IPv4 dotted quad expected)");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket failed: ") +
                           std::strerror(errno));
  }
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const std::string message = std::string("cannot connect to ") +
                                resolved + ":" + std::to_string(port) +
                                ": " + std::strerror(errno);
    ::close(fd);
    return Status::IoError(message);
  }
  if (Status nodelay = SetNoDelay(fd); !nodelay.ok()) {
    ::close(fd);
    return nodelay;
  }
  return fd;
}

Result<JsonValue> RoundTrip(int fd, const JsonValue& request,
                            const WireLimits& limits) {
  MIC_RETURN_IF_ERROR(
      WriteFrame(fd, request.Serialize(), limits.max_frame_bytes));
  MIC_ASSIGN_OR_RETURN(std::string payload, ReadFrame(fd, limits));
  return JsonValue::Parse(payload);
}

}  // namespace mic::serve
