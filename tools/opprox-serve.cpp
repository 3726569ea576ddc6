//===- tools/opprox-serve.cpp - Network serving tier CLI ------------------===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// Serves optimize requests over TCP: the resident-daemon deployment of
// the online half of the pipeline, for hosts that call into OPPROX from
// another process or another machine instead of forking opprox-optimize
// per request. Protocol and operations: docs/SERVING.md.
//
//   opprox-serve --artifact lulesh.opprox.json --port 7657
//   opprox-serve --artifact pso=pso.json,lulesh=lulesh.json
//
// Signals: SIGHUP hot-swaps every artifact from disk (atomically, no
// in-flight request lost); SIGINT/SIGTERM drain and exit.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"
#include "support/CommandLine.h"
#include "support/Signals.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include <csignal>
#include <cstdio>

using namespace opprox;
using namespace opprox::serve;

namespace {

/// Parses one --artifact entry of the form "path" or "name=path".
ServeAppConfig parseAppEntry(const std::string &Entry) {
  ServeAppConfig App;
  size_t Eq = Entry.find('=');
  if (Eq == std::string::npos) {
    App.Path = trim(Entry);
  } else {
    App.Name = trim(Entry.substr(0, Eq));
    App.Path = trim(Entry.substr(Eq + 1));
  }
  return App;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string ArtifactList;
  std::string Bind = "127.0.0.1";
  long Port = 0;
  long Shards = 0;
  long QueueCapacity = 64;
  long MaxConnections = 128;
  long ReadTimeoutMs = 30000;
  long MaxRequestBytes = 1 << 20;
  long LoadRetries = 3;
  double RetryBackoffMs = 10.0;
  bool NoLastGood = false;
  long CacheShards = -1;
  long CacheCapacity = -1;
  bool NoCache = false;
  long ScanThreads = -1;
  long SlowWindow = 256;
  long SlowTop = 3;
  long SlowSeed = 42;
  bool OnlineControl = false;
  TelemetryOptions Telemetry;

  FlagParser Flags;
  Flags.addFlag("artifact", &ArtifactList,
                "Comma-separated artifacts to serve, each 'path' or "
                "'name=path' (default name: the artifact's app name)");
  Flags.addFlag("bind", &Bind, "Listen address (default: loopback only)");
  Flags.addFlag("port", &Port, "TCP port; 0 picks an ephemeral port");
  Flags.addFlag("shards", &Shards,
                "Worker shards; 0 = auto (OPPROX_THREADS, else hardware "
                "threads)");
  Flags.addFlag("queue-capacity", &QueueCapacity,
                "Pipelined requests a shard serves per cycle before "
                "shedding the excess");
  Flags.addFlag("max-connections", &MaxConnections,
                "Connections per shard before new ones are shed");
  Flags.addFlag("read-timeout-ms", &ReadTimeoutMs,
                "Close connections idle longer than this");
  Flags.addFlag("max-request-bytes", &MaxRequestBytes,
                "Hard cap on one request line; larger requests are "
                "answered 'oversized' and the connection closed");
  Flags.addFlag("load-retries", &LoadRetries,
                "Artifact load attempts per (re)load before giving up");
  Flags.addFlag("retry-backoff-ms", &RetryBackoffMs,
                "Initial sleep between load attempts (doubles each retry)");
  Flags.addFlag("no-last-good", &NoLastGood,
                "Do not fall back to the last successfully loaded artifact");
  Flags.addFlag("cache-shards", &CacheShards,
                "Schedule-cache lock shards per artifact (default 8, or "
                "OPPROX_CACHE_SHARDS)");
  Flags.addFlag("cache-capacity", &CacheCapacity,
                "Schedule-cache entries per artifact; 0 caches nothing "
                "(default 4096, or OPPROX_CACHE_CAPACITY)");
  Flags.addFlag("no-cache", &NoCache,
                "Disable the schedule cache entirely (every request runs "
                "the full optimizer)");
  Flags.addFlag("scan-threads", &ScanThreads,
                "Executors for each cache-miss solve's chunked scan: 1 = "
                "serial, 0 = auto (default 1, or OPPROX_SCAN_THREADS); the "
                "shards share one scan pool");
  Flags.addFlag("slow-window", &SlowWindow,
                "Requests per shard between slow-request log flushes; "
                "0 disables the sampler");
  Flags.addFlag("slow-top", &SlowTop,
                "Slowest requests logged per window, with their stage "
                "breakdown");
  Flags.addFlag("online-control", &OnlineControl,
                "Accept the per-request 'feedback' member: observed phase "
                "QoS replayed through an online controller, answering with "
                "the corrected remaining-phase schedule");
  Flags.addFlag("slow-seed", &SlowSeed,
                "Seed of the deterministic per-window spotlight sample");
  addTelemetryFlags(Flags, Telemetry);
  if (!Flags.parse(Argc, Argv))
    return 1;
  if (!initTelemetry(Telemetry))
    return 1;

  std::vector<ServeAppConfig> Apps;
  for (const std::string &Entry : split(ArtifactList, ','))
    if (!trim(Entry).empty())
      Apps.push_back(parseAppEntry(Entry));
  for (const std::string &Entry : Flags.positional())
    Apps.push_back(parseAppEntry(Entry));
  if (Apps.empty()) {
    std::fprintf(stderr, "error: --artifact is required\n");
    Flags.printUsage(Argv[0]);
    return 1;
  }
  if (Port < 0 || Port > 65535) {
    std::fprintf(stderr, "error: --port must be in [0, 65535]\n");
    return 1;
  }
  if (LoadRetries < 1) {
    std::fprintf(stderr, "error: --load-retries must be at least 1\n");
    return 1;
  }
  if (QueueCapacity < 1 || MaxConnections < 1 || MaxRequestBytes < 2 ||
      ReadTimeoutMs < 1) {
    std::fprintf(stderr, "error: capacities and timeouts must be positive\n");
    return 1;
  }

  ServeOptions Opts;
  Opts.BindAddress = Bind;
  Opts.Port = static_cast<uint16_t>(Port);
  Opts.Shards = static_cast<size_t>(Shards);
  Opts.QueueCapacity = static_cast<size_t>(QueueCapacity);
  Opts.MaxConnectionsPerShard = static_cast<size_t>(MaxConnections);
  Opts.ReadTimeoutMs = ReadTimeoutMs;
  Opts.MaxRequestBytes = static_cast<size_t>(MaxRequestBytes);
  Opts.Load.Retry.MaxAttempts = static_cast<size_t>(LoadRetries);
  Opts.Load.Retry.InitialBackoffMs = RetryBackoffMs;
  Opts.Load.UseLastGood = !NoLastGood;
  // Opts.Planner already carries the OPPROX_CACHE_* environment
  // overrides; explicit flags beat the environment.
  if (CacheShards >= 0)
    Opts.Planner.Cache.Shards = static_cast<size_t>(CacheShards);
  if (CacheCapacity >= 0)
    Opts.Planner.Cache.Capacity = static_cast<size_t>(CacheCapacity);
  if (NoCache)
    Opts.Planner.UseCache = false;
  if (ScanThreads > static_cast<long>(ThreadPool::MaxExecutors)) {
    std::fprintf(stderr, "error: --scan-threads must be at most %zu\n",
                 ThreadPool::MaxExecutors);
    return 1;
  }
  if (ScanThreads >= 0)
    Opts.Planner.ScanThreads = static_cast<size_t>(ScanThreads);
  if (SlowWindow < 0 || SlowTop < 0) {
    std::fprintf(stderr, "error: --slow-window/--slow-top must be >= 0\n");
    return 1;
  }
  Opts.SlowRequestWindow = static_cast<size_t>(SlowWindow);
  Opts.SlowRequestTopN = static_cast<size_t>(SlowTop);
  Opts.SlowRequestSeed = static_cast<uint64_t>(SlowSeed);
  Opts.OnlineControl = OnlineControl;

  // Install the signal plumbing before the server threads exist so every
  // thread inherits the disposition and signals land on the self-pipe.
  SignalWaiter Signals({SIGHUP, SIGINT, SIGTERM});

  Expected<std::unique_ptr<Server>> Srv =
      Server::start(std::move(Apps), Opts);
  if (!Srv) {
    std::fprintf(stderr, "error: %s\n", Srv.error().message().c_str());
    return 1;
  }

  // Readiness line, parsed by the load generator and CI: once this is
  // on stdout the port accepts connections.
  std::printf("opprox-serve: listening on %s:%u (apps: %s)\n", Bind.c_str(),
              static_cast<unsigned>((*Srv)->port()),
              join((*Srv)->appNames(), ", ").c_str());
  std::fflush(stdout);

  for (;;) {
    int Signo = Signals.wait(/*TimeoutMs=*/-1);
    if (Signo == SIGHUP) {
      (*Srv)->hotSwap();
      continue;
    }
    if (Signo == SIGINT || Signo == SIGTERM)
      break;
  }
  (*Srv)->shutdown();
  // Export on the drain path explicitly, not just via the atexit hook: a
  // daemon's telemetry must survive every orderly kill, and the explicit
  // call also captures it should a later teardown step crash the
  // process. Writing twice is idempotent.
  (void)exportTelemetry(Telemetry);
  return 0;
}
