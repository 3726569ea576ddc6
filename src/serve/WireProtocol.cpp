//===- serve/WireProtocol.cpp ---------------------------------------------===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "serve/WireProtocol.h"
#include "support/StringUtils.h"
#include <cmath>

using namespace opprox;
using namespace opprox::serve;

namespace {

Error codedError(const char *Code, const std::string &Detail) {
  return Error(std::string(Code) + ": " + Detail);
}

} // namespace

Expected<ServeRequest> serve::parseServeRequest(const std::string &Line) {
  Expected<Json> Doc = Json::parse(Line);
  if (!Doc)
    return codedError(errc::ParseError, Doc.error().message());
  if (!Doc->isObject())
    return codedError(errc::BadRequest, "request must be a JSON object");

  ServeRequest Req;
  bool SawBudget = false;
  for (const auto &[Key, Value] : Doc->members()) {
    if (Key == "id") {
      Req.Id = Value;
    } else if (Key == "app") {
      if (!Value.isString())
        return codedError(errc::BadRequest, "'app' must be a string");
      Req.App = Value.asString();
    } else if (Key == "budget") {
      if (!Value.isNumber())
        return codedError(errc::BadRequest, "'budget' must be a number");
      Req.Budget = Value.asNumber();
      SawBudget = true;
    } else if (Key == "input") {
      if (!Value.isArray())
        return codedError(errc::BadRequest,
                          "'input' must be an array of numbers");
      for (size_t I = 0; I < Value.size(); ++I) {
        if (!Value.at(I).isNumber())
          return codedError(errc::BadRequest,
                            format("'input'[%zu] must be a number", I));
        Req.Input.push_back(Value.at(I).asNumber());
      }
    } else if (Key == "confidence") {
      if (!Value.isNumber())
        return codedError(errc::BadRequest, "'confidence' must be a number");
      double Confidence = Value.asNumber();
      if (!(std::isfinite(Confidence) && Confidence > 0.0 &&
            Confidence < 1.0))
        return codedError(errc::BadRequest,
                          "'confidence' must be strictly between 0 and 1");
      Req.Confidence = Confidence;
    } else if (Key == "aggressive") {
      if (!Value.isBool())
        return codedError(errc::BadRequest, "'aggressive' must be a boolean");
      Req.Aggressive = Value.asBool();
    } else if (Key == "stats") {
      if (Value.isBool()) {
        Req.Stats = Value.asBool();
      } else if (Value.isString() && Value.asString() == "delta") {
        Req.Stats = true;
        Req.StatsDelta = true;
      } else {
        return codedError(errc::BadRequest,
                          "'stats' must be a boolean or the string \"delta\"");
      }
    } else if (Key == "health") {
      if (!Value.isBool())
        return codedError(errc::BadRequest, "'health' must be a boolean");
      Req.Health = Value.asBool();
    } else if (Key == "feedback") {
      if (!Value.isArray())
        return codedError(errc::BadRequest,
                          "'feedback' must be an array of numbers");
      for (size_t I = 0; I < Value.size(); ++I) {
        if (!Value.at(I).isNumber() ||
            !std::isfinite(Value.at(I).asNumber()))
          return codedError(
              errc::BadRequest,
              format("'feedback'[%zu] must be a finite number", I));
        Req.Feedback.push_back(Value.at(I).asNumber());
      }
      Req.HasFeedback = true;
    } else {
      // Unknown members are rejected, mirroring the CLI's unknown-flag
      // policy: a typo must not silently change a request's meaning.
      return codedError(errc::BadRequest,
                        format("unknown request member '%s'", Key.c_str()));
    }
  }
  if (!SawBudget && !Req.isProbe())
    return codedError(errc::BadRequest, "missing required member 'budget'");
  return Req;
}

std::string serve::requestErrorCode(const Error &E) {
  const std::string &Message = E.message();
  for (const char *Code : {errc::ParseError, errc::BadRequest,
                           errc::UnknownApp, errc::Overloaded,
                           errc::Oversized, errc::Internal})
    if (startsWith(Message, std::string(Code) + ": "))
      return Code;
  return errc::Internal;
}

Json serve::cacheStatsJson() {
  MetricsRegistry &Registry = MetricsRegistry::global();
  Json Cache = Json::object();
  Cache.set("hits", Registry.counter("cache.hits").value());
  Cache.set("misses", Registry.counter("cache.misses").value());
  Cache.set("negative_hits", Registry.counter("cache.negative_hits").value());
  Cache.set("evictions", Registry.counter("cache.evictions").value());
  Json Out = Json::object();
  Out.set("cache", std::move(Cache));
  return Out;
}

std::string serve::successResponseLine(const Json &Id, Json ResultDoc) {
  return splicedResponseLine(Id, ResultDoc.dump());
}

std::string serve::splicedResponseLine(const Json &Id,
                                       std::string_view ResultBytes) {
  // Exactly what dumping {"id": Id, "ok": true, "result": <document>}
  // produces, with the result bytes copied in instead of re-serialized.
  static constexpr std::string_view Head = "{\"id\":";
  static constexpr std::string_view Middle = ",\"ok\":true,\"result\":";
  std::string IdBytes = Id.dump();
  std::string Line;
  Line.reserve(Head.size() + IdBytes.size() + Middle.size() +
               ResultBytes.size() + 2);
  Line.append(Head).append(IdBytes).append(Middle).append(ResultBytes);
  Line += "}\n";
  return Line;
}

std::string serve::errorResponseLine(const Json &Id, const std::string &Code,
                                     const std::string &Message) {
  Json Detail = Json::object();
  Detail.set("code", Code);
  Detail.set("message", Message);
  Json Response = Json::object();
  Response.set("id", Id);
  Response.set("ok", false);
  Response.set("error", std::move(Detail));
  return Response.dump() + "\n";
}
