// The declarative endpoint registry: one table describing every framed
// op — its name, whether it mutates the world, its typed parameter
// schema, and how a CLI client should treat the response body. The
// table is the single source of truth shared by:
//   - the service dispatcher (src/serve/service.cc): request routing,
//     per-op window channels, and pre-handler validation (unknown
//     parameters are REJECTED with bad_request naming the offender —
//     a protocol-version-2 behavior; see docs/serve_protocol.md),
//   - the CLI (`mictrend query`, tools/): per-op flag validation and
//     request assembly, plus generated usage text,
//   - the docs: serve_protocol.md's endpoint list mirrors this table
//     and cli_smoke cross-checks the generated op list against it.
//
// Handlers are intentionally NOT in the table — the registry has no
// dependency on TrendService; the service binds table rows to member
// functions positionally (a static_assert keeps the two aligned).

#ifndef MICTREND_SERVE_REGISTRY_H_
#define MICTREND_SERVE_REGISTRY_H_

#include <span>
#include <string>
#include <string_view>

#include "common/result.h"
#include "serve/wire.h"

namespace mic::serve {

enum class ParamType : int {
  kString = 0,
  kInt = 1,
  kDouble = 2,
  kBool = 3,
  kStringList = 4,  // JSON array of strings; CLI comma-splits the flag.
  kIntList = 5,     // JSON array of integers; CLI comma-splits the flag.
};

/// Display name for usage text ("string", "int", ...).
std::string_view ParamTypeName(ParamType type);

/// One request parameter: `name` is the wire member; the CLI flag is
/// the name with '_' mapped to '-' (--snapshot-months for
/// "snapshot_months"). Validation here covers presence and JSON shape;
/// value semantics (positivity, name lookup, entry types) stay in
/// handlers.
struct ParamSpec {
  std::string_view name;
  ParamType type = ParamType::kString;
  bool required = false;
  /// One-line usage description (mentions defaults where helpful).
  std::string_view summary;
};

/// How `mictrend query --out` treats the response body.
enum class ResponseMode : int {
  /// Write the whole response envelope.
  kEnvelope = 0,
  /// Write the raw bytes of data[raw_member] (report_csv: the exact
  /// offline artifact, enabling byte comparison).
  kRawMember = 1,
  /// Write data's deterministic serialization (drilldown / explain:
  /// byte-comparable against the offline `mictrend drilldown` output).
  kDataOnly = 2,
};

struct EndpointSpec {
  std::string_view name;
  /// Mutating ops are dispatched without a snapshot pin (the publish
  /// path drains pins; holding one would self-deadlock) and serialize
  /// server-side.
  bool mutates = false;
  std::string_view summary;
  std::span<const ParamSpec> params;
  ResponseMode response = ResponseMode::kEnvelope;
  std::string_view raw_member;

  const ParamSpec* FindParam(std::string_view param) const;
};

/// Number of framed ops (= EndpointTable().size(); a static_assert in
/// registry.cc pins it). The service sizes its per-op channel array
/// with this at compile time.
inline constexpr std::size_t kNumEndpoints = 12;

/// Every framed op, in dispatch order (the service's per-op channels
/// and handler table bind to this order).
std::span<const EndpointSpec> EndpointTable();

/// Table row by op name; nullptr for unknown ops.
const EndpointSpec* FindEndpoint(std::string_view op);

/// Index of `op` in EndpointTable(); EndpointTable().size() when
/// unknown (the "serve.unknown" catch-all channel).
std::size_t EndpointIndex(std::string_view op);

/// Schema validation for one request against `spec`:
///   - members other than "op" / "protocol" must be declared
///     parameters (unknown ones are rejected, naming the offender),
///   - required parameters must be present,
///   - present parameters must match their declared JSON shape.
/// All failures are InvalidArgument (=> bad_request on the wire).
Status ValidateRequest(const EndpointSpec& spec, const JsonValue& request);

/// Generated per-op usage lines for CLI help and docs cross-checks:
/// one "  <op> [params...]  summary" block per table row.
std::string BuildOpsUsageText();

}  // namespace mic::serve

#endif  // MICTREND_SERVE_REGISTRY_H_
