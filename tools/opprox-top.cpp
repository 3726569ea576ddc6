//===- tools/opprox-top.cpp - Live terminal monitor for opprox-serve ------===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// A curses-free `top` for the serving tier: polls a running opprox-serve
// over its wire probe family ({"health": true} + {"stats": "delta"},
// docs/OBSERVABILITY.md "Live probes") and renders live request rate,
// latency percentiles, per-stage attribution, cache hit ratio, and
// health -- all from *windowed* deltas, so the numbers describe the last
// interval, not the process lifetime.
//
//   opprox-top --port 7657                 # live view, 2s refresh
//   opprox-top --port 7657 --interval-s 1
//   opprox-top --port 7657 --once --json   # one machine-readable sample
//
// The delta window is server-side state shared by all delta pollers:
// run one opprox-top (or other delta poller) per server.
//
//===----------------------------------------------------------------------===//

#include "support/CommandLine.h"
#include "support/Json.h"
#include "support/Socket.h"
#include "support/StringUtils.h"
#include <chrono>
#include <cstdio>
#include <thread>

using namespace opprox;

namespace {

constexpr const char *Stages[] = {"parse", "plan", "lookup", "compute",
                                  "serialize"};

/// One persistent probe connection speaking the newline-delimited JSON
/// protocol.
class ProbeClient {
public:
  Expected<Json> roundTrip(const Json &Request) {
    if (std::optional<Error> E = sendAll(Sock, Request.dump() + "\n"))
      return *E;
    std::string Line;
    std::string Chunk;
    while (!Framer.next(Line)) {
      Chunk.clear();
      RecvResult R = recvSome(Sock, Chunk);
      if (R.Status != IoStatus::Ok)
        return Error(R.Status == IoStatus::Timeout
                         ? "probe timed out"
                         : "server closed the probe connection");
      if (!Framer.feed(Chunk.data(), Chunk.size()))
        return Error("oversized probe response");
    }
    Expected<Json> Doc = Json::parse(Line);
    if (!Doc)
      return Doc.error();
    const Json *Ok = Doc->find("ok");
    if (!Ok || !Ok->isBool() || !Ok->asBool())
      return Error("probe answered with an error response");
    const Json *Result = Doc->find("result");
    if (!Result)
      return Error("probe response has no result");
    return *Result;
  }

  static Expected<ProbeClient> connect(const std::string &Host, uint16_t Port,
                                       long Retries) {
    for (long Attempt = 0;; ++Attempt) {
      Expected<Socket> Sock = connectTcp(Host, Port);
      if (Sock) {
        if (std::optional<Error> E = setRecvTimeoutMs(*Sock, 10000))
          return *E;
        ProbeClient Client;
        Client.Sock = std::move(*Sock);
        return Client;
      }
      if (Attempt >= Retries)
        return Sock.error();
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }

private:
  Socket Sock;
  LineFramer Framer{1 << 20};
};

const Json *child(const Json *Obj, const std::string &Key) {
  return Obj && Obj->isObject() ? Obj->find(Key) : nullptr;
}

double num(const Json *Obj, const std::string &Key, double Default = 0.0) {
  const Json *V = child(Obj, Key);
  return V && V->isNumber() ? V->asNumber() : Default;
}

std::string text(const Json *Obj, const std::string &Key,
                 const std::string &Default = "?") {
  const Json *V = child(Obj, Key);
  return V && V->isString() ? V->asString() : Default;
}

/// The monitor's derived view of one (health, delta) probe pair: the
/// numbers both render modes share.
struct Sample {
  Json Health; ///< The "health" object.
  Json Delta;  ///< The delta snapshot.

  double rate(const std::string &Counter) const {
    return num(child(&Delta, "rates_per_sec"), Counter);
  }
  double count(const std::string &Counter) const {
    return num(child(&Delta, "counters"), Counter);
  }
  const Json *histogram(const std::string &Name) const {
    return child(child(&Delta, "histograms"), Name);
  }
  double cacheHitRatio() const {
    double Hits = count("cache.hits");
    double Misses = count("cache.misses");
    return Hits + Misses > 0 ? Hits / (Hits + Misses) : 0.0;
  }
  /// Per-stage sums, for attribution shares.
  double stageSumTotal() const {
    double Total = 0.0;
    for (const char *Stage : Stages)
      Total += num(histogram(std::string("serve.stage_ms.") + Stage), "sum");
    return Total;
  }
};

Json derivedJson(const Sample &S) {
  Json LatencyMs = Json::object();
  const Json *ReqMs = S.histogram("serve.request_ms");
  LatencyMs.set("p50", num(ReqMs, "p50"));
  LatencyMs.set("p95", num(ReqMs, "p95"));
  LatencyMs.set("p99", num(ReqMs, "p99"));

  double SumTotal = S.stageSumTotal();
  Json StageMs = Json::object();
  for (const char *Stage : Stages) {
    const Json *H = S.histogram(std::string("serve.stage_ms.") + Stage);
    Json Entry = Json::object();
    Entry.set("count", num(H, "count"));
    Entry.set("sum", num(H, "sum"));
    Entry.set("mean", num(H, "mean"));
    Entry.set("p50", num(H, "p50"));
    Entry.set("p95", num(H, "p95"));
    Entry.set("p99", num(H, "p99"));
    Entry.set("share", SumTotal > 0 ? num(H, "sum") / SumTotal : 0.0);
    StageMs.set(Stage, std::move(Entry));
  }

  Json Derived = Json::object();
  Derived.set("rps", S.rate("serve.requests"));
  Derived.set("probes_per_sec", S.rate("serve.probes"));
  Derived.set("shed_per_sec", S.rate("serve.shed"));
  Derived.set("errors_per_sec", S.rate("serve.errors"));
  Derived.set("latency_ms", std::move(LatencyMs));
  Derived.set("cache_hit_ratio", S.cacheHitRatio());
  Derived.set("stage_ms", std::move(StageMs));
  return Derived;
}

void renderJson(const Sample &S) {
  Json Out = Json::object();
  Out.set("schema", "opprox-top-1");
  Out.set("health", S.Health);
  Out.set("derived", derivedJson(S));
  Out.set("delta", S.Delta);
  std::printf("%s\n", Out.dump(2).c_str());
}

void renderScreen(const Sample &S, const std::string &Host, uint16_t Port,
                  bool Clear) {
  if (Clear)
    std::printf("\x1b[2J\x1b[H"); // Clear screen, home cursor.

  const Json *H = &S.Health;
  std::string Apps;
  if (const Json *AppsArr = child(H, "apps"))
    for (size_t I = 0; I < AppsArr->size(); ++I)
      Apps += (I ? ", " : "") + AppsArr->at(I).asString();
  const Json *Conns = child(H, "connections");
  const Json *Window = child(H, "window");

  std::printf("opprox-top — %s:%u   status: %s   uptime: %.0fs   "
              "generation: %.0f\n",
              Host.c_str(), static_cast<unsigned>(Port),
              text(H, "status").c_str(), num(H, "uptime_s"),
              num(H, "artifact_generation"));
  std::printf("apps: %s   shards: %.0f   conns: %.0f/%.0f   window: %.1fs\n\n",
              Apps.c_str(), num(H, "shards"), num(Conns, "active"),
              num(Conns, "capacity"), num(Window, "interval_s"));

  const Json *ReqMs = S.histogram("serve.request_ms");
  std::printf("  req/s %9.1f    probes/s %6.2f    shed/s %6.2f    "
              "errors/s %6.2f\n",
              S.rate("serve.requests"), S.rate("serve.probes"),
              S.rate("serve.shed"), S.rate("serve.errors"));
  std::printf("  latency_ms   p50 %8.4f   p95 %8.4f   p99 %8.4f\n",
              num(ReqMs, "p50"), num(ReqMs, "p95"), num(ReqMs, "p99"));
  std::printf("  cache hit ratio %.4f   (hits %.0f, misses %.0f)\n\n",
              S.cacheHitRatio(), S.count("cache.hits"),
              S.count("cache.misses"));

  double SumTotal = S.stageSumTotal();
  std::printf("  %-10s %10s %10s %10s %8s\n", "stage", "p50_ms", "p95_ms",
              "p99_ms", "share%");
  for (const char *Stage : Stages) {
    const Json *Hist = S.histogram(std::string("serve.stage_ms.") + Stage);
    double Share = SumTotal > 0 ? 100.0 * num(Hist, "sum") / SumTotal : 0.0;
    std::printf("  %-10s %10.4f %10.4f %10.4f %8.1f\n", Stage,
                num(Hist, "p50"), num(Hist, "p95"), num(Hist, "p99"), Share);
  }
  std::fflush(stdout);
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Host = "127.0.0.1";
  long Port = 0;
  double IntervalS = 2.0;
  long Count = 0;
  bool Once = false;
  bool AsJson = false;
  long ConnectRetries = 50;

  FlagParser Flags;
  Flags.addFlag("host", &Host, "Server host (default 127.0.0.1)");
  Flags.addFlag("port", &Port, "Server port (required)");
  Flags.addFlag("interval-s", &IntervalS,
                "Seconds between probe polls (default 2)");
  Flags.addFlag("count", &Count, "Stop after this many samples; 0 = forever");
  Flags.addFlag("once", &Once,
                "Take a single sample and exit (the window covers the time "
                "since server start or the previous delta probe)");
  Flags.addFlag("json", &AsJson,
                "Emit machine-readable JSON samples instead of the live view");
  Flags.addFlag("connect-retries", &ConnectRetries,
                "Connection attempts before giving up (100ms apart)");
  if (!Flags.parse(Argc, Argv))
    return 1;
  if (Port <= 0 || Port > 65535) {
    std::fprintf(stderr, "error: --port is required (1..65535)\n");
    return 1;
  }
  if (IntervalS <= 0.0) {
    std::fprintf(stderr, "error: --interval-s must be positive\n");
    return 1;
  }
  if (Once)
    Count = 1;

  Expected<ProbeClient> Client = ProbeClient::connect(
      Host, static_cast<uint16_t>(Port), ConnectRetries);
  if (!Client) {
    std::fprintf(stderr, "error: cannot reach %s:%ld: %s\n", Host.c_str(),
                 Port, Client.error().message().c_str());
    return 1;
  }

  Json HealthReq = Json::object();
  HealthReq.set("health", true);
  Json DeltaReq = Json::object();
  DeltaReq.set("stats", "delta");

  for (long Taken = 0; Count == 0 || Taken < Count; ++Taken) {
    if (Taken > 0)
      std::this_thread::sleep_for(
          std::chrono::duration<double>(IntervalS));

    Expected<Json> HealthDoc = Client->roundTrip(HealthReq);
    if (!HealthDoc) {
      std::fprintf(stderr, "error: health probe: %s\n",
                   HealthDoc.error().message().c_str());
      return 1;
    }
    Expected<Json> DeltaDoc = Client->roundTrip(DeltaReq);
    if (!DeltaDoc) {
      std::fprintf(stderr, "error: delta probe: %s\n",
                   DeltaDoc.error().message().c_str());
      return 1;
    }

    Sample S;
    const Json *Health = HealthDoc->find("health");
    S.Health = Health ? *Health : Json::object();
    S.Delta = std::move(*DeltaDoc);
    if (AsJson)
      renderJson(S);
    else
      renderScreen(S, Host, static_cast<uint16_t>(Port), /*Clear=*/!Once);
  }
  return 0;
}
