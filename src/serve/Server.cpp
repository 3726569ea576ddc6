//===- serve/Server.cpp ---------------------------------------------------===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"
#include "control/OnlineController.h"
#include "serve/Observability.h"
#include "serve/WireProtocol.h"
#include "support/Log.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fcntl.h>
#include <future>
#include <map>
#include <mutex>
#include <poll.h>
#include <unistd.h>

using namespace opprox;
using namespace opprox::serve;

namespace {

using Clock = std::chrono::steady_clock;

/// The immutable app -> runtime table a hot swap republishes. Requests
/// copy the shared_ptr once and keep that snapshot for their whole
/// lifetime, which is what makes a swap lossless for in-flight work.
struct RuntimeTable {
  std::map<std::string, std::shared_ptr<const OpproxRuntime>> ByApp;
};

/// One client connection, owned by exactly one shard thread.
struct Conn {
  Socket Sock;
  LineFramer Framer;
  Clock::time_point LastActivity;

  Conn(Socket S, size_t MaxFrame)
      : Sock(std::move(S)), Framer(MaxFrame), LastActivity(Clock::now()) {}
};

/// Self-pipe a shard polls alongside its connections so the acceptor
/// (new connection) and shutdown() can interrupt a sleeping poll.
struct WakePipe {
  Socket ReadEnd;
  Socket WriteEnd;

  std::optional<Error> init() {
    int Fds[2];
    if (::pipe(Fds) != 0)
      return Error("wake pipe: pipe() failed");
    ::fcntl(Fds[0], F_SETFL, O_NONBLOCK);
    ::fcntl(Fds[1], F_SETFL, O_NONBLOCK);
    ReadEnd = Socket(Fds[0]);
    WriteEnd = Socket(Fds[1]);
    return std::nullopt;
  }

  void wake() {
    char Byte = 1;
    (void)!::write(WriteEnd.fd(), &Byte, 1);
  }

  void drain() {
    char Buf[64];
    while (::read(ReadEnd.fd(), Buf, sizeof(Buf)) > 0) {
    }
  }
};

void setNonBlocking(const Socket &Sock) {
  int Flags = ::fcntl(Sock.fd(), F_GETFL, 0);
  if (Flags >= 0)
    ::fcntl(Sock.fd(), F_SETFL, Flags | O_NONBLOCK);
}

/// Strips the "code: " prefix parseServeRequest errors carry, leaving
/// the human-readable detail for the wire message field.
std::string errorDetail(const Error &E) {
  const std::string &Message = E.message();
  size_t Colon = Message.find(": ");
  std::string Code = requestErrorCode(E);
  if (Colon != std::string::npos && Message.compare(0, Colon, Code) == 0)
    return Message.substr(Colon + 2);
  return Message;
}

} // namespace

struct Server::Impl {
  ServeOptions Opts;
  std::vector<ServeAppConfig> Apps; ///< Names resolved, order preserved.
  Socket Listener;
  uint16_t Port = 0;

  std::mutex TableMutex; ///< Guards the Table pointer, not the table.
  std::shared_ptr<const RuntimeTable> Table;
  std::mutex SwapMutex; ///< Serializes concurrent hotSwap() calls.
  size_t Generation = 0;

  struct Shard {
    std::mutex IncomingMutex;
    std::vector<Socket> Incoming; ///< Handed over by the acceptor.
    WakePipe Wake;
    /// Owned + queued connections; read by the acceptor for placement.
    std::atomic<size_t> NumConns{0};
    std::vector<Conn> Conns; ///< Shard-thread private.
    /// Shard-thread private, like Conns: observe() needs no locks.
    std::unique_ptr<SlowRequestSampler> Sampler;
  };
  std::vector<std::unique_ptr<Shard>> Shards;

  /// Shutdown is two-phase: AcceptStopping stops (and shutdown() joins)
  /// the acceptor first, so no connection can be handed to a shard after
  /// that shard's final drain pass; only then does Stopping start the
  /// shard drains.
  std::atomic<bool> AcceptStopping{false};
  std::atomic<bool> Stopping{false};
  bool Joined = false;
  std::mutex JoinMutex;
  std::unique_ptr<ThreadPool> Pool;
  std::future<void> AcceptorLoop;
  std::vector<std::future<void>> Loops; ///< One per shard.

  // Cached instrument handles: the hot path touches only atomics.
  Counter &Requests = MetricsRegistry::global().counter("serve.requests");
  Counter &ShedCount = MetricsRegistry::global().counter("serve.shed");
  Counter &ErrorCount = MetricsRegistry::global().counter("serve.errors");
  Counter &Timeouts = MetricsRegistry::global().counter("serve.timeouts");
  Counter &OversizedCount =
      MetricsRegistry::global().counter("serve.oversized");
  Counter &HotSwaps = MetricsRegistry::global().counter("serve.hot_swaps");
  Counter &HotSwapFailures =
      MetricsRegistry::global().counter("serve.hot_swap_failures");
  Counter &Accepted = MetricsRegistry::global().counter("serve.connections");
  Gauge &ActiveConns =
      MetricsRegistry::global().gauge("serve.active_connections");
  Gauge &GenerationGauge =
      MetricsRegistry::global().gauge("serve.artifact_generation");
  Histogram &RequestMs =
      MetricsRegistry::global().histogram("serve.request_ms");
  /// Probe lines (stats/health) are counted here and deliberately kept
  /// out of serve.requests / serve.request_ms, so a monitoring poller
  /// cannot skew the latency statistics it reads.
  Counter &ProbeCount = MetricsRegistry::global().counter("serve.probes");
  /// Per-request stage attribution on the fine-grained sub-microsecond
  /// grid: the five stages exactly partition each request's wall clock.
  Histogram &StageParseMs = MetricsRegistry::global().histogram(
      "serve.stage_ms.parse", Histogram::stageBoundsMs());
  Histogram &StagePlanMs = MetricsRegistry::global().histogram(
      "serve.stage_ms.plan", Histogram::stageBoundsMs());
  Histogram &StageLookupMs = MetricsRegistry::global().histogram(
      "serve.stage_ms.lookup", Histogram::stageBoundsMs());
  Histogram &StageComputeMs = MetricsRegistry::global().histogram(
      "serve.stage_ms.compute", Histogram::stageBoundsMs());
  Histogram &StageSerializeMs = MetricsRegistry::global().histogram(
      "serve.stage_ms.serialize", Histogram::stageBoundsMs());
  std::atomic<size_t> TotalConns{0};

  Clock::time_point StartTime = Clock::now();
  /// Delta/health probe baselines; seeded at construction so the first
  /// probe after startup covers the window since the server came up.
  ServerProbes ProbeState;

  std::shared_ptr<const RuntimeTable> table() {
    std::lock_guard<std::mutex> Lock(TableMutex);
    return Table;
  }

  void publish(std::shared_ptr<const RuntimeTable> NewTable) {
    std::lock_guard<std::mutex> Lock(TableMutex);
    Table = std::move(NewTable);
  }

  void connOpened() {
    ActiveConns.set(static_cast<double>(
        TotalConns.fetch_add(1, std::memory_order_relaxed) + 1));
  }
  void connClosed() {
    ActiveConns.set(static_cast<double>(
        TotalConns.fetch_sub(1, std::memory_order_relaxed) - 1));
  }

  void acceptLoop();
  void shardLoop(size_t Index);
  bool handleLine(Conn &C, const std::string &Line, Shard &S,
                  size_t &CycleBudget);
  bool handleProbe(Conn &C, const ServeRequest &Req);
  bool respond(Conn &C, const std::string &Line);
};

//===----------------------------------------------------------------------===//
// Accept loop
//===----------------------------------------------------------------------===//

void Server::Impl::acceptLoop() {
  while (!AcceptStopping.load(std::memory_order_relaxed)) {
    pollfd Pfd{};
    Pfd.fd = Listener.fd();
    Pfd.events = POLLIN;
    int Rc = ::poll(&Pfd, 1, /*timeout=*/100);
    if (Rc <= 0)
      continue;

    Socket Client;
    RecvResult R = acceptConnection(Listener, Client);
    if (R.Status == IoStatus::Timeout)
      continue;
    if (R.Status != IoStatus::Ok) {
      logInfo("serve: %s", R.Message.c_str());
      continue;
    }
    Accepted.add();
    setNonBlocking(Client);

    // Round-robin placement, probing past full shards. Every shard at
    // capacity means the process is saturated: shed the connection with
    // a structured response instead of letting it queue unboundedly.
    static std::atomic<size_t> NextShard{0};
    size_t Start = NextShard.fetch_add(1, std::memory_order_relaxed);
    Shard *Target = nullptr;
    for (size_t Probe = 0; Probe < Shards.size(); ++Probe) {
      Shard &S = *Shards[(Start + Probe) % Shards.size()];
      if (S.NumConns.load(std::memory_order_relaxed) <
          Opts.MaxConnectionsPerShard) {
        Target = &S;
        break;
      }
    }
    if (!Target) {
      ShedCount.add();
      (void)sendAll(Client, errorResponseLine(Json(), errc::Overloaded,
                                              "server at connection "
                                              "capacity"));
      continue; // Client destructor closes.
    }
    Target->NumConns.fetch_add(1, std::memory_order_relaxed);
    connOpened();
    {
      std::lock_guard<std::mutex> Lock(Target->IncomingMutex);
      Target->Incoming.push_back(std::move(Client));
    }
    Target->Wake.wake();
  }
}

//===----------------------------------------------------------------------===//
// Shard loop
//===----------------------------------------------------------------------===//

bool Server::Impl::respond(Conn &C, const std::string &Line) {
  return !sendAll(C.Sock, Line).has_value();
}

/// Answers a stats/health probe line. Probes bypass the optimizer, the
/// latency histograms, and serve.requests: a monitoring poller must not
/// skew the statistics it reads. They are counted in serve.probes.
bool Server::Impl::handleProbe(Conn &C, const ServeRequest &Req) {
  ProbeCount.add();
  Json Doc;
  if (Req.Health) {
    HealthContext Ctx;
    Ctx.UptimeS =
        std::chrono::duration<double>(Clock::now() - StartTime).count();
    Ctx.ArtifactGeneration = static_cast<size_t>(GenerationGauge.value());
    Ctx.Shards = Shards.size();
    Ctx.ActiveConnections = TotalConns.load(std::memory_order_relaxed);
    Ctx.ConnectionCapacity = Shards.size() * Opts.MaxConnectionsPerShard;
    for (const auto &[Name, Unused] : table()->ByApp)
      Ctx.Apps.push_back(Name);
    Doc = ProbeState.health(Ctx);
  } else if (Req.StatsDelta) {
    Doc = ProbeState.statsDelta();
  } else {
    Doc = statsSnapshotJson();
  }
  return respond(C, successResponseLine(Req.Id, std::move(Doc)));
}

/// Parses and serves one request line, or sheds it when the shard's
/// per-cycle budget is spent. Never throws; every outcome is a response
/// line. Returns false when the response could not be (fully) written:
/// the peer may hold a truncated line, so the caller must close the
/// connection -- appending anything after a partial write would corrupt
/// the in-order response stream.
///
/// Latency accounting: four timestamps partition the request exactly.
/// T0..T1 is parse, T1..T2 is the optimize interval (the planner
/// reports its lookup and compute layers precisely; the residual is
/// "plan": validation, app resolution, option merging), and T2..T3 is
/// serialize (response construction + the socket write; on a cache hit
/// the construction is only the splice of memoized result bytes). The stage
/// histograms therefore sum to serve.request_ms by construction.
bool Server::Impl::handleLine(Conn &C, const std::string &Line, Shard &S,
                              size_t &CycleBudget) {
  if (CycleBudget == 0) {
    Requests.add();
    ShedCount.add();
    return respond(C, errorResponseLine(Json(), errc::Overloaded,
                                        format("shard request queue full "
                                               "(capacity %zu)",
                                               Opts.QueueCapacity)));
  }
  --CycleBudget;

  TraceSpan Span("serve.request", "serve");
  Clock::time_point T0 = Clock::now();
  Expected<ServeRequest> Req = parseServeRequest(Line);
  Clock::time_point T1 = Clock::now();

  if (Req && Req->isProbe()) {
    Span.arg("probe", 1.0);
    return handleProbe(C, *Req);
  }
  Requests.add();

  // Every non-probe outcome funnels through here. \p T2 is taken by the
  // caller *before* building the response line, so serialize covers
  // construction and the write.
  PlannerStageBreakdown PB;
  auto Finish = [&](const Json &Id, Clock::time_point T2, bool IsError,
                    const std::string &Response) -> bool {
    if (IsError)
      ErrorCount.add();
    bool Sent = respond(C, Response);
    Clock::time_point T3 = Clock::now();
    auto MsBetween = [](Clock::time_point A, Clock::time_point B) {
      return std::chrono::duration<double, std::milli>(B - A).count();
    };
    double ParseMs = MsBetween(T0, T1);
    double PlanMs =
        std::max(0.0, MsBetween(T1, T2) - PB.LookupMs - PB.ComputeMs);
    double SerializeMs = MsBetween(T2, T3);
    double TotalMs = MsBetween(T0, T3);
    RequestMs.record(TotalMs);
    StageParseMs.record(ParseMs);
    StagePlanMs.record(PlanMs);
    StageLookupMs.record(PB.LookupMs);
    StageComputeMs.record(PB.ComputeMs);
    StageSerializeMs.record(SerializeMs);
    if (Span.recording()) {
      Span.arg("parse_ms", ParseMs);
      Span.arg("plan_ms", PlanMs);
      Span.arg("lookup_ms", PB.LookupMs);
      Span.arg("compute_ms", PB.ComputeMs);
      Span.arg("serialize_ms", SerializeMs);
      Span.arg("cache_hit", PB.CacheHit ? 1.0 : 0.0);
    }
    if (S.Sampler) {
      StageSample Sample;
      Sample.Id = Id.dump();
      Sample.TotalMs = TotalMs;
      Sample.ParseMs = ParseMs;
      Sample.PlanMs = PlanMs;
      Sample.LookupMs = PB.LookupMs;
      Sample.ComputeMs = PB.ComputeMs;
      Sample.SerializeMs = SerializeMs;
      S.Sampler->observe(Sample);
    }
    if (IsError)
      logDebug("serve: request id=%s answered with an error after %.3f ms",
               Id.dump().c_str(), TotalMs);
    return Sent;
  };

  if (!Req) {
    // Echo the caller's id even when the request is rejected: re-parse
    // the raw line for it (error path only, so no hot-path cost).
    Json Id;
    if (Expected<Json> Doc = Json::parse(Line))
      if (const Json *IdField = Doc->find("id"))
        Id = *IdField;
    Clock::time_point T2 = Clock::now();
    return Finish(Id, T2, /*IsError=*/true,
                  errorResponseLine(Id, requestErrorCode(Req.error()),
                                    errorDetail(Req.error())));
  }

  std::shared_ptr<const RuntimeTable> Snapshot = table();
  std::shared_ptr<const OpproxRuntime> Rt;
  if (Req->App.empty()) {
    if (Snapshot->ByApp.size() == 1) {
      Rt = Snapshot->ByApp.begin()->second;
    } else {
      Clock::time_point T2 = Clock::now();
      return Finish(Req->Id, T2, /*IsError=*/true,
                    errorResponseLine(Req->Id, errc::BadRequest,
                                      format("'app' is required when %zu "
                                             "artifacts are resident",
                                             Snapshot->ByApp.size())));
    }
  } else {
    auto It = Snapshot->ByApp.find(Req->App);
    if (It == Snapshot->ByApp.end()) {
      std::vector<std::string> Names;
      for (const auto &[Name, Unused] : Snapshot->ByApp)
        Names.push_back(Name);
      Clock::time_point T2 = Clock::now();
      return Finish(Req->Id, T2, /*IsError=*/true,
                    errorResponseLine(Req->Id, errc::UnknownApp,
                                      format("no artifact for '%s' "
                                             "(resident: %s)",
                                             Req->App.c_str(),
                                             join(Names, ", ").c_str())));
    }
    Rt = It->second;
  }

  const std::vector<double> &Input =
      Req->Input.empty() ? Rt->artifact().DefaultInput : Req->Input;
  // The server-configured options are the default; the request only
  // overrides the members it actually supplied.
  OptimizeOptions OptimizeOpts = Opts.Optimize;
  if (Req->Confidence)
    OptimizeOpts.ConfidenceP = *Req->Confidence;
  if (Req->Aggressive)
    OptimizeOpts.Conservative = !*Req->Aggressive;

  if (Req->HasFeedback) {
    // Online-control path: replay the observed per-phase QoS values
    // through a controller over this runtime -- its initial solve and
    // every tail re-solve route through the same shared planner as
    // plain requests, so identical feedback streams hit the schedule
    // cache and stay bit-deterministic.
    Clock::time_point T2;
    if (!Opts.OnlineControl) {
      T2 = Clock::now();
      return Finish(Req->Id, T2, /*IsError=*/true,
                    errorResponseLine(Req->Id, errc::BadRequest,
                                      "'feedback' requires the server's "
                                      "--online-control opt-in"));
    }
    if (Req->Feedback.size() > Rt->numPhases()) {
      T2 = Clock::now();
      return Finish(Req->Id, T2, /*IsError=*/true,
                    errorResponseLine(
                        Req->Id, errc::BadRequest,
                        format("'feedback' has %zu entries but the artifact "
                               "has %zu phases",
                               Req->Feedback.size(), Rt->numPhases())));
    }
    control::ControllerOptions CtrlOpts;
    CtrlOpts.Optimize = OptimizeOpts;
    Expected<control::OnlineController> Ctrl = control::OnlineController::start(
        *Rt, Input, Req->Budget, CtrlOpts);
    T2 = Clock::now();
    if (!Ctrl)
      return Finish(Req->Id, T2, /*IsError=*/true,
                    errorResponseLine(Req->Id, errc::BadRequest,
                                      Ctrl.error().message()));
    for (size_t P = 0; P < Req->Feedback.size(); ++P) {
      control::PhaseObservation Obs;
      Obs.Phase = P;
      Obs.ObservedQos = Req->Feedback[P];
      Ctrl->onPhaseComplete(Obs);
    }
    Json Doc = optimizationResultJson(Rt->artifact(), Req->Budget, Input,
                                      Ctrl->plan());
    Json Control = Json::object();
    Control.set("next_phase", Ctrl->nextPhase());
    Control.set("spent_qos", Ctrl->spentQos());
    Control.set("remaining_budget", Ctrl->remainingBudget());
    Control.set("distrust_ratio", Ctrl->distrustRatio());
    Control.set("distrusts", Ctrl->stats().Distrusts);
    Control.set("resolves", Ctrl->stats().Resolves);
    Control.set("corrections", Ctrl->stats().Corrections);
    Control.set("rejected_resolves", Ctrl->stats().RejectedResolves);
    Doc.set("control", std::move(Control));
    T2 = Clock::now();
    return Finish(Req->Id, T2, /*IsError=*/false,
                  successResponseLine(Req->Id, std::move(Doc)));
  }

  Expected<OptimizationResult> Result =
      Rt->tryOptimizeDetailed(Input, Req->Budget, OptimizeOpts, &PB);
  Clock::time_point T2 = Clock::now();
  if (!Result)
    return Finish(Req->Id, T2, /*IsError=*/true,
                  errorResponseLine(Req->Id, errc::BadRequest,
                                    Result.error().message()));
  // A cached solve carries its result document, rendered once when the
  // entry was inserted; only a solve the cache does not keep (degraded,
  // or the cache disabled) renders it here. Either way the response
  // splices the same bytes optimizationResultJson produces.
  std::string Rendered;
  if (!PB.Document)
    Rendered =
        optimizationResultJson(Rt->artifact(), Req->Budget, Input, *Result)
            .dump();
  return Finish(Req->Id, T2, /*IsError=*/false,
                splicedResponseLine(Req->Id,
                                    PB.Document ? *PB.Document : Rendered));
}

void Server::Impl::shardLoop(size_t Index) {
  Shard &S = *Shards[Index];
  std::vector<pollfd> Pfds;
  std::string Line;

  auto CloseConn = [&](size_t I) {
    S.Conns.erase(S.Conns.begin() + static_cast<long>(I));
    S.NumConns.fetch_sub(1, std::memory_order_relaxed);
    connClosed();
  };

  // A connection streaming fast enough that every recv returns a full
  // chunk must not pin the shard: cap the bytes one connection may read
  // per poll cycle so the loop always returns to poll() and its
  // siblings (and the idle-timeout pass) keep making progress. Whatever
  // is left stays in the kernel buffer and is served next cycle.
  constexpr size_t MaxReadBytesPerCycle = 64 * 1024;

  // One read-and-serve pass over connection I. Returns false when the
  // connection must close (EOF, error, oversized frame, or a failed
  // response write -- after a partial write the stream is unrecoverable).
  auto ServeReadable = [&](size_t I, size_t &CycleBudget) -> bool {
    Conn &C = S.Conns[I];
    std::string Chunk;
    size_t BytesThisCycle = 0;
    for (;;) {
      Chunk.clear();
      RecvResult R = recvSome(C.Sock, Chunk);
      if (R.Status == IoStatus::Timeout)
        break; // Drained the kernel buffer.
      if (R.Status == IoStatus::Eof)
        return false;
      if (R.Status == IoStatus::Failed) {
        logDebug("serve: dropping connection: %s", R.Message.c_str());
        return false;
      }
      C.LastActivity = Clock::now();
      BytesThisCycle += R.Bytes;
      if (!C.Framer.feed(Chunk.data(), Chunk.size())) {
        OversizedCount.add();
        respond(C, errorResponseLine(Json(), errc::Oversized,
                                     format("request exceeds %zu bytes",
                                            Opts.MaxRequestBytes)));
        return false;
      }
      while (C.Framer.next(Line))
        if (!handleLine(C, Line, S, CycleBudget)) {
          logDebug("serve: closing connection after failed response write");
          return false;
        }
      if (R.Bytes < 4096)
        break; // Short read: nothing more buffered right now.
      if (CycleBudget == 0 || BytesThisCycle >= MaxReadBytesPerCycle)
        break; // Fairness bound: let the other connections run.
    }
    return true;
  };

  while (true) {
    bool Draining = Stopping.load(std::memory_order_relaxed);

    // Adopt connections the acceptor handed over.
    {
      std::lock_guard<std::mutex> Lock(S.IncomingMutex);
      for (Socket &Sock : S.Incoming)
        S.Conns.emplace_back(std::move(Sock), Opts.MaxRequestBytes);
      S.Incoming.clear();
    }

    size_t CycleBudget = Opts.QueueCapacity;
    if (Draining) {
      // Final pass: answer whatever has fully arrived, then leave.
      for (size_t I = S.Conns.size(); I-- > 0;) {
        if (!ServeReadable(I, CycleBudget))
          CloseConn(I);
      }
      while (!S.Conns.empty())
        CloseConn(S.Conns.size() - 1);
      return;
    }

    Pfds.clear();
    pollfd WakePfd{};
    WakePfd.fd = S.Wake.ReadEnd.fd();
    WakePfd.events = POLLIN;
    Pfds.push_back(WakePfd);
    for (const Conn &C : S.Conns) {
      pollfd Pfd{};
      Pfd.fd = C.Sock.fd();
      Pfd.events = POLLIN;
      Pfds.push_back(Pfd);
    }
    ::poll(Pfds.data(), Pfds.size(), /*timeout=*/100);
    // Only a wake-up (new connection, shutdown) leaves bytes to drain;
    // a request-only cycle skips the read() that would return EAGAIN.
    if (Pfds[0].revents & POLLIN)
      S.Wake.drain();

    // Serve readable connections; iterate backwards so closing one
    // never shifts an index we still need. Pfds[I + 1] pairs Conns[I].
    for (size_t I = S.Conns.size(); I-- > 0;) {
      short Re = Pfds[I + 1].revents;
      if (!(Re & (POLLIN | POLLERR | POLLHUP)))
        continue;
      if (!ServeReadable(I, CycleBudget))
        CloseConn(I);
    }

    // Enforce the read timeout on whoever is left.
    Clock::time_point Now = Clock::now();
    for (size_t I = S.Conns.size(); I-- > 0;) {
      auto IdleMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                        Now - S.Conns[I].LastActivity)
                        .count();
      if (IdleMs > Opts.ReadTimeoutMs) {
        Timeouts.add();
        logDebug("serve: closing connection idle for %lld ms",
                 static_cast<long long>(IdleMs));
        CloseConn(I);
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Server lifecycle
//===----------------------------------------------------------------------===//

Server::Server(std::unique_ptr<Impl> Impl) : I(std::move(Impl)) {}

Expected<std::unique_ptr<Server>> Server::start(std::vector<ServeAppConfig> Apps,
                                                ServeOptions Opts) {
  if (Apps.empty())
    return Error("opprox-serve needs at least one artifact to serve");
  Opts.Optimize.NumThreads = 1;
  Opts.Optimize.Pool = nullptr;
  if (Opts.QueueCapacity == 0 || Opts.MaxConnectionsPerShard == 0)
    return Error("queue capacity and connection limit must be positive");

  auto ImplPtr = std::make_unique<Impl>();
  ImplPtr->Opts = Opts;

  // Load every artifact up front; a server that cannot serve its
  // configured apps should fail fast, not at the first request.
  auto NewTable = std::make_shared<RuntimeTable>();
  for (ServeAppConfig &App : Apps) {
    Expected<OpproxRuntime> Rt = OpproxRuntime::loadArtifact(App.Path,
                                                             Opts.Load);
    if (!Rt)
      return Error(format("artifact '%s': %s", App.Path.c_str(),
                          Rt.error().message().c_str()));
    Rt->configurePlanner(Opts.Planner);
    if (App.Name.empty())
      App.Name = Rt->appName();
    auto [It, Inserted] = NewTable->ByApp.emplace(
        App.Name, std::make_shared<const OpproxRuntime>(std::move(*Rt)));
    if (!Inserted)
      return Error(format("two artifacts both serve application '%s'",
                          App.Name.c_str()));
  }
  ImplPtr->Apps = std::move(Apps);
  ImplPtr->publish(std::move(NewTable));
  ImplPtr->GenerationGauge.set(0.0);

  Expected<Socket> Listener = listenTcp(Opts.BindAddress, Opts.Port);
  if (!Listener)
    return Listener.error();
  ImplPtr->Listener = std::move(*Listener);
  Expected<uint16_t> Port = boundPort(ImplPtr->Listener);
  if (!Port)
    return Port.error();
  ImplPtr->Port = *Port;

  size_t NumShards =
      Opts.Shards ? Opts.Shards : ThreadPool::defaultWorkerCount();
  for (size_t S = 0; S < NumShards; ++S) {
    auto Sh = std::make_unique<Impl::Shard>();
    if (std::optional<Error> E = Sh->Wake.init())
      return *E;
    // No sampler object at all when disabled: the request loop gates
    // its StageSample (and the id serialization) on the pointer.
    if (Opts.SlowRequestWindow > 0 && Opts.SlowRequestTopN > 0)
      Sh->Sampler = std::make_unique<SlowRequestSampler>(
          Opts.SlowRequestWindow, Opts.SlowRequestTopN, Opts.SlowRequestSeed,
          S);
    ImplPtr->Shards.push_back(std::move(Sh));
  }

  // One worker per shard plus the acceptor; the pool is dedicated to
  // these long-lived loops, so its FIFO queue is never contended.
  ImplPtr->Pool = std::make_unique<ThreadPool>(NumShards + 1);
  Impl *Raw = ImplPtr.get();
  ImplPtr->AcceptorLoop = Raw->Pool->submit([Raw] { Raw->acceptLoop(); });
  for (size_t S = 0; S < NumShards; ++S)
    ImplPtr->Loops.push_back(
        Raw->Pool->submit([Raw, S] { Raw->shardLoop(S); }));

  logInfo("serve: listening on %s:%u with %zu shards, %zu artifacts",
          Opts.BindAddress.c_str(), static_cast<unsigned>(ImplPtr->Port),
          NumShards, ImplPtr->Apps.size());
  return std::unique_ptr<Server>(new Server(std::move(ImplPtr)));
}

Server::~Server() { shutdown(); }

uint16_t Server::port() const { return I->Port; }

size_t Server::numShards() const { return I->Shards.size(); }

std::vector<std::string> Server::appNames() const {
  std::shared_ptr<const RuntimeTable> Snapshot = I->table();
  std::vector<std::string> Names;
  for (const auto &[Name, Unused] : Snapshot->ByApp)
    Names.push_back(Name);
  return Names;
}

size_t Server::hotSwap() {
  std::lock_guard<std::mutex> SwapLock(I->SwapMutex);
  std::shared_ptr<const RuntimeTable> Old = I->table();
  auto NewTable = std::make_shared<RuntimeTable>();
  size_t Reloaded = 0;
  for (const ServeAppConfig &App : I->Apps) {
    // loadArtifact walks the reliability ladder itself: bounded retry,
    // then the last-known-good cache (which startup populated), so a
    // transiently bad file on disk still reloads "successfully" with
    // the previous bytes.
    Expected<OpproxRuntime> Rt =
        OpproxRuntime::loadArtifact(App.Path, I->Opts.Load);
    if (Rt) {
      // A fresh runtime owns a fresh planner and cache: entries keyed
      // under the outgoing artifact die with it, so the swapped-in
      // model can never serve a schedule the old model computed.
      Rt->configurePlanner(I->Opts.Planner);
      NewTable->ByApp[App.Name] =
          std::make_shared<const OpproxRuntime>(std::move(*Rt));
      ++Reloaded;
    } else {
      I->HotSwapFailures.add();
      logInfo("serve: hot swap kept current '%s' artifact: %s",
              App.Name.c_str(), Rt.error().message().c_str());
      NewTable->ByApp[App.Name] = Old->ByApp.at(App.Name);
    }
  }
  I->publish(std::move(NewTable));
  I->HotSwaps.add();
  I->GenerationGauge.set(static_cast<double>(++I->Generation));
  logInfo("serve: hot swap complete, %zu/%zu artifacts reloaded "
          "(generation %zu)",
          Reloaded, I->Apps.size(), I->Generation);
  return Reloaded;
}

void Server::shutdown() {
  std::lock_guard<std::mutex> Lock(I->JoinMutex);
  if (I->Joined)
    return;
  // Stop and join the acceptor before any shard starts its final drain
  // pass: otherwise a connection accepted in the gap could land on
  // Shard::Incoming after that shard's last adoption, and be destroyed
  // with its buffered requests unanswered and its connOpened() never
  // balanced by connClosed().
  I->AcceptStopping.store(true, std::memory_order_relaxed);
  I->AcceptorLoop.wait();
  I->Stopping.store(true, std::memory_order_relaxed);
  for (auto &S : I->Shards)
    S->Wake.wake();
  for (std::future<void> &Loop : I->Loops)
    Loop.wait();
  I->Pool.reset();
  I->Joined = true;
  logInfo("serve: drained and stopped");
}
