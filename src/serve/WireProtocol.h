//===- serve/WireProtocol.h - opprox-serve wire protocol -------*- C++ -*-===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The newline-delimited JSON wire protocol of the serving tier. One
/// request per line, one response line per request, in order. The full
/// specification -- field semantics, error codes, framing rules -- is
/// docs/SERVING.md; this header is its implementation.
///
/// Request:
///
///   {"budget": 10, "app": "pso", "input": [30,5], "id": 7,
///    "confidence": 0.99, "aggressive": false}
///
/// Success response ("result" is byte-identical to the JSON document
/// `opprox-optimize --json` prints for the same artifact and request,
/// because both sides build it with optimizationResultJson()):
///
///   {"id": 7, "ok": true, "result": {...}}
///
/// Error response:
///
///   {"id": 7, "ok": false, "error": {"code": "bad_request",
///    "message": "..."}}
///
//===----------------------------------------------------------------------===//

#ifndef OPPROX_SERVE_WIREPROTOCOL_H
#define OPPROX_SERVE_WIREPROTOCOL_H

#include "core/ModelArtifact.h"
#include "core/Optimizer.h"
#include "support/Json.h"
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace opprox {
namespace serve {

/// Machine-readable failure classes of an error response. String values
/// are part of the wire contract (docs/SERVING.md) -- never renumber or
/// rename.
namespace errc {
inline constexpr const char *ParseError = "parse_error";   ///< Line is not valid JSON.
inline constexpr const char *BadRequest = "bad_request";   ///< Schema/value violation.
inline constexpr const char *UnknownApp = "unknown_app";   ///< No resident artifact.
inline constexpr const char *Overloaded = "overloaded";    ///< Shed by a full queue.
inline constexpr const char *Oversized = "oversized";      ///< Request exceeded the frame cap.
inline constexpr const char *Internal = "internal";        ///< Unexpected server-side failure.
} // namespace errc

/// One parsed optimize request.
struct ServeRequest {
  /// Echoed verbatim into the response ("id" member; null when absent).
  Json Id;
  /// Target application; empty selects the server's sole resident
  /// artifact (an error when several are resident).
  std::string App;
  /// QoS degradation budget in percent. Required.
  double Budget = 0.0;
  /// Input values; empty means the artifact's recorded DefaultInput.
  std::vector<double> Input;
  /// Confidence level of conservative predictions. Absent defers to the
  /// server's configured base OptimizeOptions (ServeOptions::Optimize),
  /// which is what makes the embedder's ConfidenceP a real default
  /// rather than one a member-less request silently overrides.
  std::optional<double> Confidence;
  /// Point predictions instead of conservative bounds; absent defers to
  /// the server's configured base OptimizeOptions.
  std::optional<bool> Aggressive;
  /// `"stats": true` turns the line into a statistics probe: the server
  /// answers with the full metrics snapshot (plus a "cache" rollup)
  /// instead of running an optimization, and the otherwise-required
  /// budget is waived.
  bool Stats = false;
  /// `"stats": "delta"` asks for the windowed snapshot since the
  /// previous delta probe (MetricsRegistry::deltaJson) instead of the
  /// lifetime one. Implies Stats.
  bool StatsDelta = false;
  /// `"health": true` turns the line into a health probe: uptime,
  /// artifact generation, shard/connection state, and windowed shed/
  /// degraded rates summarized as ok|degraded|overloaded.
  bool Health = false;
  /// `"feedback": [qos0, qos1, ...]` -- observed per-phase QoS
  /// degradations for the phases a run has already executed, in phase
  /// order. The server replays them through an OnlineController over
  /// the resident artifact and answers with the corrected
  /// remaining-phase schedule plus a "control" member. Requires the
  /// server's --online-control opt-in; rejected as bad_request
  /// otherwise.
  std::vector<double> Feedback;
  bool HasFeedback = false;

  /// True for any probe line (stats, delta, health). Probes bypass the
  /// optimizer and are accounted in serve.probes, never in
  /// serve.requests / serve.request_ms.
  bool isProbe() const { return Stats || Health; }
};

/// Parses one request line. Malformed JSON or a schema violation comes
/// back as an Error whose message starts with the wire error code
/// followed by ": " (requestErrorCode() recovers the code), so callers
/// can build the error response without a second classification pass.
Expected<ServeRequest> parseServeRequest(const std::string &Line);

/// Splits the "code: detail" convention of parseServeRequest errors.
/// Unrecognized messages map to errc::Internal.
std::string requestErrorCode(const Error &E);

/// The canonical result document lives in core, next to
/// OptimizationResult, so the planner can render the bytes it memoizes
/// with each cache entry; the serving tier keeps the name.
using opprox::optimizationResultJson;

/// The process-wide schedule-cache counter rollup embedded in every
/// `"stats": true` response (and usable standalone): {"cache": {"hits",
/// "misses", "negative_hits", "evictions"}}.
Json cacheStatsJson();

/// Builds the success response envelope around a result document.
std::string successResponseLine(const Json &Id, Json ResultDoc);

/// The success response envelope around an already-serialized result
/// document: byte-identical to successResponseLine(Id, Doc) when
/// \p ResultBytes is Doc.dump(). Warm cache hits answer through this
/// with the bytes memoized at insert, building no DOM.
std::string splicedResponseLine(const Json &Id, std::string_view ResultBytes);

/// Builds an error response line. \p Id may be null (unparsable
/// requests have no id to echo).
std::string errorResponseLine(const Json &Id, const std::string &Code,
                              const std::string &Message);

} // namespace serve
} // namespace opprox

#endif // OPPROX_SERVE_WIREPROTOCOL_H
