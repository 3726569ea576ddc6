//===- artbench/cpp/ServeWorkloads.cpp - warm-repeat and cold-mix ---------===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two serving workloads. Both run an in-process serve::Server over
/// the five artifacts (2 shards, scan threads 1) and drive it with two
/// closed-loop client connections, each sending its next request only
/// after the previous response arrived; server and clients share one
/// CPU (see PinToOneCpu):
///
///  - warm-repeat: 40 keys, all pre-warmed in setup, so every timed
///    request is a cache hit and the time goes to the serve layer
///    (parse, response build, socket write) and the cache lookup;
///  - cold-mix: every key new, apps mixed, one request in five carrying
///    QoS feedback (--online-control on), so the time goes to the cold
///    solve and the controller, and the cache only inserts and evicts.
///
/// A run times setup several times, then drives one untraced window of
/// --seconds; a traced run adds a second, traced window and the layer
/// probes. Every response of every window is checked against a reference
/// built in-process (the planner with the cache off, then the same
/// response builders the server uses).
///
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "Streams.h"
#include "apps/AppRegistry.h"
#include "control/OnlineController.h"
#include "serve/Server.h"
#include "serve/WireProtocol.h"
#include "support/Socket.h"
#include "support/Statistics.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cmath>
#include <sched.h>
#include <memory>
#include <string_view>
#include <thread>
#include <unordered_set>

using namespace artbench;
using namespace opprox;
using namespace opprox::serve;

namespace {

constexpr size_t Connections = 2;
constexpr size_t SetupRepeats = 31;
constexpr long RecvTimeoutMs = 10000;
/// Probe sample sizes of traced runs.
constexpr size_t WarmProbeRepeats = 25;
constexpr size_t ColdProbePerApp = 40;
constexpr size_t ArtifactLoadRepeats = 5;
/// Capacity of one connection's latency buffer.
constexpr size_t LatencyCapacity = 1 << 21;
/// Requests per latency block (see LatencyBuffer::blockQuantiles): the
/// smallest block with ten samples beyond its p99.
constexpr size_t LatencyBlock = MinSamplesForP99;
/// Request spans one connection records, leaving most of the trace's
/// room to the layer probes.
constexpr size_t MaxClientSpans = 25000;
/// Schedule-cache entries per served artifact.
constexpr size_t ServeCacheCapacity = 1024;
/// Length of one throughput slice.
constexpr double SliceSeconds = 0.25;

enum class Outcome : uint8_t { Ok, ErrorResponse, Shed, Transport, Mismatch };

/// One response as its client saw it. The response itself is not kept:
/// its bytes after the echoed id are hashed, and the check compares that
/// hash with the reference response's.
struct Sent {
  size_t Hash = 0;
  Outcome Result = Outcome::Transport;
};

size_t hashAfter(std::string_view Line, size_t PrefixLen) {
  Line.remove_prefix(std::min(PrefixLen, Line.size()));
  return std::hash<std::string_view>{}(Line);
}

std::string idPrefix(uint64_t Id) {
  return "{\"id\":" + std::to_string(Id) + ",";
}

/// Classifies \p Response to the request with id \p Id.
Sent classify(const std::string &Response, uint64_t Id) {
  Sent S;
  std::string Prefix = idPrefix(Id);
  if (Response.compare(0, Prefix.size(), Prefix) != 0) {
    S.Result = Outcome::Mismatch;
    return S;
  }
  S.Hash = hashAfter(Response, Prefix.size());
  std::string_view Rest(Response);
  Rest.remove_prefix(Prefix.size());
  if (Rest.substr(0, 9) == "\"ok\":true")
    S.Result = Outcome::Ok;
  else if (Rest.find("\"overloaded\"") != std::string_view::npos)
    S.Result = Outcome::Shed;
  else
    S.Result = Outcome::ErrorResponse;
  return S;
}

bool recvLine(const Socket &Sock, LineFramer &Framer, std::string &Line) {
  std::string Chunk;
  while (!Framer.next(Line)) {
    Chunk.clear();
    RecvResult R = recvSome(Sock, Chunk);
    if (R.Status != IoStatus::Ok || !Framer.feed(Chunk.data(), Chunk.size()))
      return false;
  }
  return true;
}

/// Pins the calling thread, and every thread it starts while pinned, to
/// the first CPU it may run on, until release() or destruction.
class PinToOneCpu {
public:
  PinToOneCpu() {
    if (sched_getaffinity(0, sizeof(Saved), &Saved) != 0)
      return;
    for (int Cpu = 0; Cpu < CPU_SETSIZE; ++Cpu)
      if (CPU_ISSET(Cpu, &Saved)) {
        cpu_set_t One;
        CPU_ZERO(&One);
        CPU_SET(Cpu, &One);
        Pinned = sched_setaffinity(0, sizeof(One), &One) == 0;
        return;
      }
  }
  ~PinToOneCpu() { release(); }
  /// Restores the affinity the thread had before.
  void release() {
    if (Pinned)
      sched_setaffinity(0, sizeof(Saved), &Saved);
    Pinned = false;
  }
  PinToOneCpu(const PinToOneCpu &) = delete;
  PinToOneCpu &operator=(const PinToOneCpu &) = delete;

private:
  cpu_set_t Saved;
  bool Pinned = false;
};

Expected<Socket> connectClient(uint16_t Port) {
  Expected<Socket> Sock = connectTcp("127.0.0.1", Port);
  if (!Sock)
    return Sock;
  if (std::optional<Error> E = setRecvTimeoutMs(*Sock, RecvTimeoutMs))
    return *E;
  return Sock;
}

/// Sends one line and reads the reply.
Expected<std::string> roundTrip(const Socket &Sock, LineFramer &Framer,
                                const std::string &Line) {
  if (std::optional<Error> E = sendAll(Sock, Line))
    return *E;
  std::string Reply;
  if (!recvLine(Sock, Framer, Reply))
    return Error("connection lost");
  return Reply;
}

/// Round-trip times of one connection in one window, in completion
/// order. The buffer is allocated and written before the windows, so it
/// adds the same resident memory to every run; samples past its capacity
/// are counted, not kept.
class LatencyBuffer {
public:
  LatencyBuffer() : Samples(LatencyCapacity, 0.0f) {}
  void clear() { N = 0; }
  void add(double Us) {
    if (N < Samples.size())
      Samples[N] = static_cast<float>(Us);
    ++N;
  }
  size_t dropped() const { return N - kept(); }
  void appendTo(std::vector<double> &Out) const {
    Out.insert(Out.end(), Samples.begin(),
               Samples.begin() + static_cast<long>(kept()));
  }
  /// The \p Q quantile of every run of LatencyBlock consecutive samples.
  void blockQuantiles(double Q, std::vector<double> &Out) const {
    for (size_t First = 0; First + LatencyBlock <= kept();
         First += LatencyBlock)
      Out.push_back(quantile(
          std::vector<double>(Samples.begin() + static_cast<long>(First),
                              Samples.begin() +
                                  static_cast<long>(First + LatencyBlock)),
          Q));
  }

private:
  size_t kept() const { return std::min(N, Samples.size()); }
  std::vector<float> Samples;
  size_t N = 0;
};

/// One client connection. Its requests are not stored: the stream is a
/// pure function of (workload, seed, connection), so the checks
/// regenerate it, and a digest of everything sent proves they see the
/// same requests.
struct Client {
  size_t Conn;
  bool Cold;
  /// warm-repeat: the reference response hash of each key.
  const std::vector<size_t> &WarmExpected;
  WarmStream Warm;
  ColdStream ColdGen;
  Socket Sock;
  LineFramer Framer{1 << 20};
  LatencyBuffer Latency;
  size_t Count = 0; ///< Requests sent: the position in the stream.
  uint64_t Digest = FnvOffsetBasis; ///< Over every request body sent.
  std::vector<Sent> ColdLog; ///< cold-mix: one per request, stream order.
  size_t WarmFailed = 0;     ///< warm-repeat: checked as they arrive.
  size_t Spans = 0;          ///< Request spans recorded.
  std::atomic<size_t> Ok{0};

  Client(size_t Conn, bool Cold, uint64_t Seed,
         const std::vector<size_t> &WarmExpected)
      : Conn(Conn), Cold(Cold), WarmExpected(WarmExpected), Warm(Seed, Conn),
        ColdGen(Seed, Conn) {}

  uint64_t id(size_t Index) const {
    return (static_cast<uint64_t>(Conn) << 32) | Index;
  }
};

void clientLoop(Client &C, Clock::time_point Deadline, Tracer *T) {
  std::string Response;
  ColdRequest Cold;
  while (Clock::now() < Deadline) {
    size_t WarmKey = 0;
    const std::string *Body;
    if (C.Cold) {
      Cold = C.ColdGen.next();
      Body = &Cold.Body;
    } else {
      WarmKey = C.Warm.next();
      Body = &warmKeyBodies()[WarmKey];
    }
    C.Digest = fnv1a(C.Digest, *Body);
    uint64_t Id = C.id(C.Count++);
    std::string Line = requestLine(Id, *Body);
    Clock::time_point T0 = Clock::now();
    bool Delivered =
        !sendAll(C.Sock, Line) && recvLine(C.Sock, C.Framer, Response);
    Clock::time_point T1 = Clock::now();
    Sent S = Delivered ? classify(Response, Id) : Sent();
    if (!C.Cold && S.Result == Outcome::Ok && S.Hash != C.WarmExpected[WarmKey])
      S.Result = Outcome::Mismatch;
    if (S.Result == Outcome::Ok) {
      C.Latency.add(microsBetween(T0, T1));
      C.Ok.fetch_add(1, std::memory_order_relaxed);
      if (T && C.Spans++ < MaxClientSpans)
        T->span("bench.client.request", T0, T1);
    }
    if (C.Cold)
      C.ColdLog.push_back(S);
    else if (S.Result != Outcome::Ok)
      ++C.WarmFailed;
    if (!Delivered)
      return; // Transport failure: this connection is done.
  }
}

/// One timed window: the clients' view and the server's own counters
/// and stage means, read through its `{"stats": "delta"}` probe.
struct WindowStats {
  std::vector<double> SliceRps;
  std::map<std::string, std::vector<double>> SliceMeanUs; ///< By histogram.
  std::map<std::string, double> Counters;
  std::map<std::string, double> HistSumMs, HistCount; ///< Whole window.
  std::vector<double> LatenciesUs; ///< Ok requests only.
  /// See LatencyBuffer::blockQuantiles.
  std::vector<double> BlockP50Us, BlockP99Us;
  size_t DroppedLatencies = 0;
  std::vector<std::pair<size_t, size_t>> Range; ///< Per client stream span.
  double PeakRssMb = 0.0; ///< At the end of the window.
};

const char *const StageHistograms[] = {
    "serve.stage_ms.parse",   "serve.stage_ms.plan",
    "serve.stage_ms.lookup",  "serve.stage_ms.compute",
    "serve.stage_ms.serialize", "serve.request_ms"};

struct Monitor {
  Socket Sock;
  LineFramer Framer{1 << 24};

  Expected<Json> delta() {
    Expected<std::string> Reply =
        roundTrip(Sock, Framer, "{\"stats\":\"delta\"}\n");
    if (!Reply)
      return Reply.error();
    Expected<Json> Doc = Json::parse(*Reply);
    if (!Doc)
      return Doc.error();
    const Json *Result = Doc->find("result");
    if (!Result || !Result->isObject())
      return Error("stats probe answered without a result");
    return *Result;
  }

  static void accumulate(const Json &Delta, WindowStats &W, bool Slice) {
    if (const Json *Counters = Delta.find("counters"))
      for (const auto &[Name, Value] : Counters->members())
        W.Counters[Name] += Value.asNumber();
    const Json *Hists = Delta.find("histograms");
    for (const char *Name : StageHistograms) {
      const Json *H = Hists ? Hists->find(Name) : nullptr;
      if (!H)
        continue;
      W.HistSumMs[Name] += H->find("sum")->asNumber();
      W.HistCount[Name] += H->find("count")->asNumber();
      if (Slice)
        W.SliceMeanUs[Name].push_back(H->find("mean")->asNumber() * 1e3);
    }
  }
};

/// Drives every client for \p Seconds, sampling the server's stats once
/// per slice.
Expected<WindowStats> runWindow(std::vector<std::unique_ptr<Client>> &Clients,
                                Monitor &Mon, double Seconds, Tracer *T) {
  WindowStats W;
  if (Expected<Json> Reset = Mon.delta(); !Reset)
    return Reset.error();
  for (auto &C : Clients) {
    C->Latency.clear();
    W.Range.push_back({C->Count, C->Count});
  }

  auto OkTotal = [&] {
    size_t N = 0;
    for (auto &C : Clients)
      N += C->Ok.load(std::memory_order_relaxed);
    return N;
  };
  size_t Slices = std::max<size_t>(
      5, static_cast<size_t>(std::lround(Seconds / SliceSeconds)));
  auto SliceLen = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(Seconds / static_cast<double>(Slices)));
  Clock::time_point Start = Clock::now();
  Clock::time_point Deadline = Start + SliceLen * static_cast<long>(Slices);
  size_t OkBefore = OkTotal();

  std::vector<std::thread> Threads;
  for (auto &C : Clients)
    Threads.emplace_back(clientLoop, std::ref(*C), Deadline, T);

  std::optional<Error> Failure;
  Clock::time_point SliceStart = Start;
  for (size_t I = 1; I <= Slices; ++I) {
    std::this_thread::sleep_until(Start + SliceLen * static_cast<long>(I));
    size_t OkNow = OkTotal();
    Clock::time_point Now = Clock::now();
    W.SliceRps.push_back(static_cast<double>(OkNow - OkBefore) /
                         std::chrono::duration<double>(Now - SliceStart).count());
    OkBefore = OkNow;
    SliceStart = Now;
    Expected<Json> D = Mon.delta();
    if (!D) {
      Failure = D.error();
      break;
    }
    Monitor::accumulate(*D, W, /*Slice=*/true);
  }
  for (std::thread &Th : Threads)
    Th.join();
  W.PeakRssMb = peakRssMb();
  if (Failure)
    return *Failure;
  // Requests in flight at the deadline finish after the last slice.
  Expected<Json> Tail = Mon.delta();
  if (!Tail)
    return Tail.error();
  Monitor::accumulate(*Tail, W, /*Slice=*/false);

  for (size_t CI = 0; CI < Clients.size(); ++CI) {
    W.Range[CI].second = Clients[CI]->Count;
    Clients[CI]->Latency.appendTo(W.LatenciesUs);
    Clients[CI]->Latency.blockQuantiles(0.5, W.BlockP50Us);
    Clients[CI]->Latency.blockQuantiles(0.99, W.BlockP99Us);
    W.DroppedLatencies += Clients[CI]->Latency.dropped();
  }
  return W;
}

double counter(const WindowStats &W, const std::string &Name) {
  auto It = W.Counters.find(Name);
  return It == W.Counters.end() ? 0.0 : It->second;
}

//===----------------------------------------------------------------------===//
// References and layer probes
//===----------------------------------------------------------------------===//

/// Samples of the layer probes a traced run takes while it rebuilds
/// responses; null in untraced runs and in the parallel check.
struct LayerProbes {
  Tracer &T;
  std::vector<double> ParseUs, BuildUs, ReplayUs, LookupUs, ClassifyUs,
      SendUs;
  std::vector<std::string> Responses; ///< Response lines the send probe writes.
  std::map<std::string, std::vector<double>> ComputeMs, EvalPlanUs,
      PredictNsPerConfig;
  std::map<std::string, double> Solves, Scored, Pruned, Evaluated;
  explicit LayerProbes(Tracer &T) : T(T) {}
};

/// The same response builders the server runs, over runtimes loaded from
/// the served artifacts. The references' planners have the cache off.
class References {
public:
  bool load(const std::string &ArtifactDir, bool CacheOn) {
    for (const std::string &Name : allAppNames()) {
      Expected<OpproxRuntime> Rt =
          OpproxRuntime::loadArtifact(artifactPath(ArtifactDir, Name));
      if (!Rt) {
        std::fprintf(stderr, "artbench: %s\n", Rt.error().message().c_str());
        return false;
      }
      PlannerOptions Planner;
      Planner.UseCache = CacheOn;
      Rt->configurePlanner(Planner);
      ByApp.emplace(Name, std::make_unique<OpproxRuntime>(std::move(*Rt)));
    }
    return true;
  }

  const OpproxRuntime &runtime(const std::string &App) const {
    return *ByApp.at(App);
  }

  /// The response line (without its newline) the server must answer
  /// \p Line with.
  Expected<std::string> response(const std::string &Line,
                                 LayerProbes *P = nullptr) const {
    std::vector<double> Scratch;
    Expected<ServeRequest> Req = [&] {
      CallTimer C(P ? P->T : NullTracer, "serve.parseServeRequest",
                  P ? P->ParseUs : Scratch);
      return parseServeRequest(Line);
    }();
    if (!Req)
      return Req.error();
    auto It = ByApp.find(Req->App);
    if (It == ByApp.end())
      return Error("unknown app " + Req->App);
    const OpproxRuntime &Rt = *It->second;
    const std::vector<double> &Input =
        Req->Input.empty() ? Rt.artifact().DefaultInput : Req->Input;
    OptimizeOptions Opts; // The server's defaults, serial.

    if (Req->HasFeedback) {
      Expected<control::OnlineController> Ctrl =
          [&]() -> Expected<control::OnlineController> {
        CallTimer C(P ? P->T : NullTracer, "control.replay",
                    P ? P->ReplayUs : Scratch);
        control::ControllerOptions CtrlOpts;
        CtrlOpts.Optimize = Opts;
        Expected<control::OnlineController> Started =
            control::OnlineController::start(Rt, Input, Req->Budget, CtrlOpts);
        if (Started)
          for (size_t Phase = 0; Phase < Req->Feedback.size(); ++Phase) {
            control::PhaseObservation Obs;
            Obs.Phase = Phase;
            Obs.ObservedQos = Req->Feedback[Phase];
            Started->onPhaseComplete(Obs);
          }
        return Started;
      }();
      if (!Ctrl)
        return Ctrl.error();
      const control::OnlineController &C = *Ctrl;
      Json Doc = optimizationResultJson(Rt.artifact(), Req->Budget, Input,
                                        C.plan());
      Json Control = Json::object();
      Control.set("next_phase", C.nextPhase());
      Control.set("spent_qos", C.spentQos());
      Control.set("remaining_budget", C.remainingBudget());
      Control.set("distrust_ratio", C.distrustRatio());
      Control.set("distrusts", C.stats().Distrusts);
      Control.set("resolves", C.stats().Resolves);
      Control.set("corrections", C.stats().Corrections);
      Control.set("rejected_resolves", C.stats().RejectedResolves);
      Doc.set("control", std::move(Control));
      return stripNewline(successResponseLine(Req->Id, std::move(Doc)));
    }

    PlannerStageBreakdown PB;
    Expected<OptimizationResult> Result =
        Rt.tryOptimizeDetailed(Input, Req->Budget, Opts, &PB);
    if (!Result)
      return Result.error();
    if (P) {
      P->ComputeMs[Req->App].push_back(PB.ComputeMs);
      P->Solves[Req->App] += 1;
      P->Scored[Req->App] += static_cast<double>(Result->ConfigsScored);
      P->Pruned[Req->App] += static_cast<double>(Result->ConfigsPruned);
      P->Evaluated[Req->App] += static_cast<double>(Result->ConfigsEvaluated);
    }
    std::string Out;
    {
      CallTimer C(P ? P->T : NullTracer, "serve.buildResponse",
                  P ? P->BuildUs : Scratch);
      Out = successResponseLine(
          Req->Id,
          optimizationResultJson(Rt.artifact(), Req->Budget, Input, *Result));
    }
    if (P)
      P->Responses.push_back(Out);
    return stripNewline(std::move(Out));
  }

private:
  static std::string stripNewline(std::string S) {
    if (!S.empty() && S.back() == '\n')
      S.pop_back();
    return S;
  }

  static inline Tracer NullTracer{false};
  std::map<std::string, std::unique_ptr<OpproxRuntime>> ByApp;
};

/// Every level row of an app's configuration space, row-major.
std::vector<int> levelSpace(const std::vector<int> &MaxLevels) {
  std::vector<int> Rows;
  std::vector<int> Row(MaxLevels.size(), 0);
  while (true) {
    Rows.insert(Rows.end(), Row.begin(), Row.end());
    size_t B = 0;
    while (B < Row.size() && Row[B] == MaxLevels[B])
      Row[B++] = 0;
    if (B == Row.size())
      return Rows;
    ++Row[B];
  }
}

/// Times the model calls a cold solve makes, directly: classification,
/// the per-phase eval plan, and the three batch predictions over the
/// whole level space.
void probeModels(const OpproxRuntime &Rt, const std::vector<double> &Input,
                 const std::vector<int> &Space, LayerProbes &P) {
  const AppModel &Model = Rt.model();
  const std::vector<int> &MaxLevels = Rt.artifact().MaxLevels;
  const std::string &App = Rt.appName();
  OptimizeOptions Opts;
  {
    CallTimer C(P.T, "core.model.classOf", P.ClassifyUs);
    (void)Model.classOf(Input);
  }
  size_t Blocks = MaxLevels.size();
  size_t Configs = Space.size() / Blocks;
  PredictScratch Scratch;
  std::vector<double> Iter, Speedup, Qos;
  for (size_t Phase = 0; Phase < Model.numPhases(); ++Phase) {
    const PhaseModels &PM = Model.phaseModels(Input, Phase);
    std::optional<PhaseEvalPlan> Plan;
    {
      CallTimer C(P.T, "core.model.makeEvalPlan", P.EvalPlanUs[App]);
      Plan.emplace(PM.makeEvalPlan(Input, MaxLevels, Opts.Conservative,
                                   Opts.ConfidenceP));
    }
    std::vector<double> Us;
    {
      CallTimer C(P.T, "core.model.predictBatches", Us);
      for (size_t First = 0; First < Configs; First += Opts.BatchSize) {
        size_t N = std::min(Opts.BatchSize, Configs - First);
        const int *Rows = Space.data() + First * Blocks;
        PM.predictIterationsBatch(*Plan, Rows, N, Iter, Scratch);
        PM.predictSpeedupBatch(*Plan, Rows, Iter.data(), N, Speedup, Scratch);
        PM.predictQosBatch(*Plan, Rows, Iter.data(), N, Qos, Scratch);
      }
    }
    P.PredictNsPerConfig[App].push_back(Us.front() * 1e3 /
                                        static_cast<double>(Configs));
  }
}

/// sendAll of every response line in \p P over a loopback connection
/// whose far end a thread drains.
bool probeSocketSend(LayerProbes &P) {
  Expected<Socket> Listener = listenTcp("127.0.0.1", 0);
  if (!Listener)
    return false;
  Expected<uint16_t> Port = boundPort(*Listener);
  if (!Port)
    return false;
  Expected<Socket> Out = connectTcp("127.0.0.1", *Port);
  if (!Out)
    return false;
  Socket In;
  if (acceptConnection(*Listener, In).Status != IoStatus::Ok)
    return false;
  (void)setRecvTimeoutMs(In, RecvTimeoutMs);
  std::thread Drain([&In] {
    std::string Buf;
    while (true) {
      Buf.clear();
      RecvResult R = recvSome(In, Buf, 1 << 16);
      if (R.Status != IoStatus::Ok)
        return;
    }
  });
  bool Ok = true;
  for (const std::string &Line : P.Responses) {
    CallTimer C(P.T, "support.sendAll", P.SendUs);
    Ok = Ok && !sendAll(*Out, Line).has_value();
  }
  Out->close();
  Drain.join();
  return Ok;
}

} // namespace

//===----------------------------------------------------------------------===//
// The workload
//===----------------------------------------------------------------------===//

bool artbench::runServeWorkload(const RunConfig &Cfg, Tracer &T, Report &R) {
  const bool Cold = Cfg.Workload == "cold-mix";

  ServeOptions Opts;
  Opts.Shards = 2;
  Opts.Planner = PlannerOptions();
  Opts.Planner.ScanThreads = 1;
  // Small enough that cold-mix passes capacity in its first seconds, so
  // every run exercises eviction and memory reaches its plateau.
  Opts.Planner.Cache.Capacity = ServeCacheCapacity;
  Opts.OnlineControl = Cold;
  std::vector<ServeAppConfig> Apps;
  for (const std::string &Name : allAppNames())
    Apps.push_back({Name, artifactPath(Cfg.ArtifactDir, Name)});

  // Setup, timed: artifact load and server start, plus the pre-warm of
  // every warm key. Repeated; the last server stays up for the load.
  std::vector<double> SetupS;
  std::unique_ptr<Server> Srv;
  // The server, its clients and the monitor run on one CPU, from setup
  // to the end of the last window. Spread over CPUs, a round trip would
  // also time wake-ups of idle virtual CPUs, and two solves at once
  // would share whatever physical cores the host gave those CPUs; both
  // are the host's choice and change from run to run.
  PinToOneCpu Pin;
  for (size_t Rep = 0; Rep < SetupRepeats; ++Rep) {
    Srv.reset();
    Clock::time_point T0 = Clock::now();
    Expected<std::unique_ptr<Server>> Started = Server::start(Apps, Opts);
    if (!Started) {
      std::fprintf(stderr, "artbench: %s\n",
                   Started.error().message().c_str());
      return false;
    }
    Srv = std::move(*Started);
    if (!Cold) {
      Expected<Socket> Sock = connectClient(Srv->port());
      if (!Sock) {
        std::fprintf(stderr, "artbench: %s\n", Sock.error().message().c_str());
        return false;
      }
      LineFramer Framer(1 << 20);
      for (size_t K = 0; K < warmKeyBodies().size(); ++K) {
        Expected<std::string> Reply =
            roundTrip(*Sock, Framer, requestLine(K, warmKeyBodies()[K]));
        if (!Reply || Reply->find("\"ok\":true") == std::string::npos) {
          std::fprintf(stderr, "artbench: pre-warm of key %zu failed\n", K);
          return false;
        }
      }
    }
    SetupS.push_back(
        std::chrono::duration<double>(Clock::now() - T0).count());
  }
  R.median("setup_s", SetupS);

  References Refs;
  if (!Refs.load(Cfg.ArtifactDir, /*CacheOn=*/false))
    return false;
  // Warm keys are known up front; their references are built before the
  // windows, outside any timing.
  std::vector<size_t> WarmExpected;
  if (!Cold)
    for (size_t K = 0; K < warmKeyBodies().size(); ++K) {
      std::string Line = requestLine(0, warmKeyBodies()[K]);
      Line.pop_back();
      Expected<std::string> Ref = Refs.response(Line);
      if (!Ref) {
        std::fprintf(stderr, "artbench: %s\n", Ref.error().message().c_str());
        return false;
      }
      WarmExpected.push_back(hashAfter(*Ref, idPrefix(0).size()));
    }

  std::vector<std::unique_ptr<Client>> Clients;
  for (size_t Conn = 0; Conn < Connections; ++Conn) {
    auto C = std::make_unique<Client>(Conn, Cold, Cfg.Seed, WarmExpected);
    Expected<Socket> Sock = connectClient(Srv->port());
    if (!Sock) {
      std::fprintf(stderr, "artbench: %s\n", Sock.error().message().c_str());
      return false;
    }
    C->Sock = std::move(*Sock);
    Clients.push_back(std::move(C));
  }
  Monitor Mon;
  Expected<Socket> MonSock = connectClient(Srv->port());
  if (!MonSock) {
    std::fprintf(stderr, "artbench: %s\n", MonSock.error().message().c_str());
    return false;
  }
  Mon.Sock = std::move(*MonSock);

  auto Window = [&](Tracer *WT) -> std::optional<WindowStats> {
    Expected<WindowStats> W = runWindow(Clients, Mon, Cfg.Seconds, WT);
    if (!W) {
      std::fprintf(stderr, "artbench: %s\n", W.error().message().c_str());
      return std::nullopt;
    }
    return std::move(*W);
  };
  std::optional<WindowStats> Plain = Window(nullptr);
  if (!Plain)
    return false;
  R.value("peak_rss_mb", Plain->PeakRssMb);
  // The host's speed switches between a few levels every few seconds,
  // so a median over the window would jump between them with the share
  // of time spent at each; means over slices and blocks move in
  // proportion to that share instead.
  R.mean("throughput_rps", Plain->SliceRps);
  if (Plain->BlockP99Us.empty()) {
    std::fprintf(stderr, "artbench: no connection completed %zu requests, "
                         "too few for a p99\n",
                 LatencyBlock);
  } else {
    R.mean("latency_p50_us", Plain->BlockP50Us);
    R.mean("latency_p99_us", Plain->BlockP99Us);
  }
  R.median("latency_window_us", Plain->LatenciesUs);
  R.guard("every latency of the window was kept",
          Plain->DroppedLatencies == 0);
  std::optional<WindowStats> Traced;
  if (Cfg.Trace && !(Traced = Window(&T)))
    return false;
  Srv.reset();
  Pin.release();

  // Workload-shape guards. The streams are regenerated for the checks;
  // each must reproduce the digest of what its connection sent.
  if (!Cold) {
    bool AllHits = true;
    for (const WindowStats *W : {&*Plain, Traced ? &*Traced : nullptr})
      if (W)
        AllHits = AllHits && counter(*W, "cache.hits") > 0 &&
                  counter(*W, "cache.misses") == 0 &&
                  counter(*W, "cache.negative_hits") == 0;
    R.guard("warm-repeat: cache hit ratio is 1.000 in every window", AllHits);
  }
  std::vector<std::vector<ColdRequest>> Streams(Clients.size());
  bool Pure = true;
  for (size_t CI = 0; CI < Clients.size(); ++CI) {
    const Client &C = *Clients[CI];
    WarmStream Warm(Cfg.Seed, C.Conn);
    ColdStream ColdGen(Cfg.Seed, C.Conn);
    uint64_t Digest = FnvOffsetBasis;
    for (size_t I = 0; I < C.Count; ++I) {
      if (Cold) {
        Streams[CI].push_back(ColdGen.next());
        Digest = fnv1a(Digest, Streams[CI].back().Body);
      } else {
        Digest = fnv1a(Digest, warmKeyBodies()[Warm.next()]);
      }
    }
    Pure = Pure && Digest == C.Digest;
  }
  R.guard("request streams are pure functions of (workload, seed)", Pure);
  if (Cold) {
    std::unordered_set<std::string> Keys;
    size_t Total = 0;
    for (const auto &Reqs : Streams)
      for (const ColdRequest &Req : Reqs) {
        ++Total;
        Keys.insert(Req.KeyText);
      }
    R.guard("cold-mix: every key sent is distinct", Keys.size() == Total);
  }

  // Output checks: every response against its reference. Warm responses
  // were compared as they arrived; cold ones are rebuilt here.
  size_t Attempted = 0;
  std::atomic<size_t> Failed{0};
  std::vector<std::pair<size_t, size_t>> Todo; // (client, stream index)
  for (size_t CI = 0; CI < Clients.size(); ++CI) {
    const Client &C = *Clients[CI];
    Attempted += C.Count;
    Failed.fetch_add(C.WarmFailed);
    for (size_t I = 0; I < C.ColdLog.size(); ++I) {
      if (C.ColdLog[I].Result == Outcome::Ok)
        Todo.push_back({CI, I});
      else
        Failed.fetch_add(1);
    }
  }
  if (!Todo.empty()) {
    ThreadPool Pool(TrainThreads);
    Pool.parallelFor(Todo.size(), [&](size_t I) {
      auto [CI, Index] = Todo[I];
      uint64_t Id = Clients[CI]->id(Index);
      std::string Line = requestLine(Id, Streams[CI][Index].Body);
      Line.pop_back();
      Expected<std::string> Ref = Refs.response(Line);
      if (!Ref || hashAfter(*Ref, idPrefix(Id).size()) !=
                      Clients[CI]->ColdLog[Index].Hash)
        Failed.fetch_add(1);
    });
  }
  R.count(Attempted, Failed.load());

  if (!Cfg.Trace)
    return true;

  //===--------------------------------------------------------------------===//
  // Per-layer metrics of the traced run.
  //===--------------------------------------------------------------------===//
  const WindowStats &W = *Traced;
  const std::pair<const char *, const char *> Stages[] = {
      {"serve.stage_ms.parse", "serve.stage.parse_us"},
      {"serve.stage_ms.plan", "serve.stage.plan_us"},
      {"serve.stage_ms.lookup", "serve.stage.lookup_us"},
      {"serve.stage_ms.compute", "serve.stage.compute_us"},
      {"serve.stage_ms.serialize", "serve.stage.serialize_us"},
      {"serve.request_ms", "serve.request_us"}};
  for (const auto &[Hist, Name] : Stages) {
    auto It = W.SliceMeanUs.find(Hist);
    if (It != W.SliceMeanUs.end())
      R.median(Name, It->second);
  }
  double Requests = counter(W, "serve.requests");
  double Hits = counter(W, "cache.hits");
  double Lookups = Hits + counter(W, "cache.misses") +
                   counter(W, "cache.negative_hits");
  R.value("core.cache.lookups", Lookups);
  R.value("core.cache.hit_ratio", Lookups > 0 ? Hits / Lookups : 0.0);
  // Every miss of a valid request inserts its (never degraded) result.
  R.value("core.cache.inserts_per_req",
          Requests > 0 ? counter(W, "cache.misses") / Requests : 0.0);
  R.value("core.cache.evictions_per_req",
          Requests > 0 ? counter(W, "cache.evictions") / Requests : 0.0);
  if (Cold) {
    double Feedback = 0.0;
    double Observations = 0.0;
    for (size_t CI = 0; CI < Clients.size(); ++CI)
      for (size_t I = W.Range[CI].first; I < W.Range[CI].second; ++I)
        if (Clients[CI]->ColdLog[I].Result == Outcome::Ok &&
            Streams[CI][I].FeedbackLen > 0) {
          Feedback += 1;
          Observations += static_cast<double>(Streams[CI][I].FeedbackLen);
        }
    R.value("control.resolves_per_feedback",
            Feedback > 0 ? counter(W, "control.resolves") / Feedback : 0.0);
    R.value("control.distrust_frac",
            Observations > 0
                ? counter(W, "control.model_distrust") / Observations
                : 0.0);
  }
  // The client's mean round trip minus the server's mean request time:
  // what the wire and the client loop add.
  if (W.HistCount.count("serve.request_ms"))
    R.value("serve.wire_overhead_us",
            summarize(W.LatenciesUs).Mean -
                W.HistSumMs.at("serve.request_ms") * 1e3 /
                    W.HistCount.at("serve.request_ms"));
  double PlainRps = summarize(Plain->SliceRps).Mean;
  double TracedRps = summarize(W.SliceRps).Mean;
  R.value("bench.trace_overhead_frac",
          TracedRps > 0 ? PlainRps / TracedRps - 1.0 : 0.0);

  // Layer probes: direct, serial calls into each layer over the
  // workload's own requests.
  LayerProbes P(T);
  References Probed; // Cache on: the planner's lookup layer.
  for (const std::string &Name : allAppNames()) {
    std::vector<double> LoadMs;
    for (size_t Rep = 0; Rep < ArtifactLoadRepeats; ++Rep) {
      std::vector<double> Us;
      {
        CallTimer C(T, "core.OpproxRuntime.loadArtifact", Us);
        (void)OpproxRuntime::loadArtifact(artifactPath(Cfg.ArtifactDir, Name));
      }
      LoadMs.push_back(Us.front() / 1e3);
    }
    R.median("core.artifact.load_ms." + Name, LoadMs);
  }
  if (!Probed.load(Cfg.ArtifactDir, /*CacheOn=*/true))
    return false;

  std::vector<std::string> ProbeLines;
  if (Cold) {
    ColdStream Gen(Cfg.Seed, ProbeConn);
    std::map<size_t, size_t> PerApp;
    while (ProbeLines.size() < ColdProbePerApp * allAppNames().size()) {
      ColdRequest Req = Gen.next();
      if (PerApp[Req.App]++ < ColdProbePerApp)
        ProbeLines.push_back(requestLine(ProbeLines.size(), Req.Body));
    }
  } else {
    for (size_t Rep = 0; Rep < WarmProbeRepeats; ++Rep)
      for (size_t K = 0; K < warmKeyBodies().size(); ++K)
        ProbeLines.push_back(requestLine(K, warmKeyBodies()[K]));
  }
  // Warm keys are looked up after one pre-warming solve, as in setup.
  if (!Cold)
    for (size_t K = 0; K < warmKeyBodies().size(); ++K) {
      std::string Line = requestLine(K, warmKeyBodies()[K]);
      Line.pop_back();
      Expected<ServeRequest> Req = parseServeRequest(Line);
      const OpproxRuntime &Rt = Probed.runtime(Req->App);
      if (!Rt.tryOptimizeDetailed(Rt.artifact().DefaultInput, Req->Budget))
        return false;
    }
  std::map<std::string, std::vector<int>> Spaces;
  for (std::string &Line : ProbeLines) {
    Line.pop_back();
    if (!Refs.response(Line, &P))
      return false;
    Expected<ServeRequest> Req = parseServeRequest(Line);
    const OpproxRuntime &Rt = Probed.runtime(Req->App);
    const std::vector<double> &Input =
        Req->Input.empty() ? Rt.artifact().DefaultInput : Req->Input;
    PlannerStageBreakdown PB;
    if (!Rt.tryOptimizeDetailed(Input, Req->Budget, OptimizeOptions(), &PB))
      return false;
    P.LookupUs.push_back(PB.LookupMs * 1e3);
    if (Cold) {
      auto [It, New] = Spaces.try_emplace(Req->App);
      if (New)
        It->second = levelSpace(Rt.artifact().MaxLevels);
      probeModels(Rt, Input, It->second, P);
    }
  }
  if (!probeSocketSend(P))
    return false;

  R.median("serve.parse_us", P.ParseUs);
  R.median("serve.build_us", P.BuildUs);
  R.median("support.socket.send_us", P.SendUs);
  R.median("core.planner.lookup_us", P.LookupUs);
  if (Cold) {
    R.median("control.replay_us", P.ReplayUs);
    R.median("core.model.classify_us", P.ClassifyUs);
    for (const std::string &App : allAppNames()) {
      R.median("core.planner.compute_ms." + App, P.ComputeMs[App]);
      R.value("core.optimizer.configs_scored." + App,
              P.Scored[App] / P.Solves[App]);
      R.value("core.optimizer.pruned_frac." + App,
              P.Pruned[App] / P.Evaluated[App]);
      R.median("core.model.eval_plan_us." + App, P.EvalPlanUs[App]);
      R.median("core.model.predict_ns_per_config." + App,
               P.PredictNsPerConfig[App]);
    }
  }
  return true;
}
