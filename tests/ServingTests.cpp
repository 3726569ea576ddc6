//===- tests/ServingTests.cpp - Serving tier: framing, protocol, server ---===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
// The serving-tier contract (serve/Server.h, docs/SERVING.md):
//
//  - request framing is byte-exact and bounded: a hostile line longer
//    than the cap is rejected before it is ever handed out, whether it
//    arrives in one burst or dribbled byte by byte;
//  - every malformed request line in tests/corpus/wire/ comes back as a
//    structured error response with the error code its filename claims
//    -- never a crash or a dropped connection (corpus pattern: add a
//    file, no code change);
//  - a live server answers over loopback: lifecycle (start -> request
//    -> hot swap under load -> drain -> stop), per-connection bounds
//    (read timeout, size cap), load shedding, and per-phase degradation
//    reported end to end through the wire when faults are armed.
//
//===----------------------------------------------------------------------===//

#include "apps/AppRegistry.h"
#include "core/OfflineTrainer.h"
#include "serve/Observability.h"
#include "serve/Server.h"
#include "serve/WireProtocol.h"
#include "support/FaultInjection.h"
#include "support/Json.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"
#include <algorithm>
#include <atomic>
#include <fcntl.h>
#include <filesystem>
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <thread>

using namespace opprox;
using namespace opprox::serve;

#ifndef OPPROX_TEST_WIRE_CORPUS_DIR
#error "OPPROX_TEST_WIRE_CORPUS_DIR must point at tests/corpus/wire"
#endif

namespace {

std::string tempPath(const std::string &Name) {
  return ::testing::TempDir() + "/" + Name;
}

/// One cheap trained artifact shared by every test in this file, saved
/// to disk once (the server loads artifacts by path).
const std::string &artifactPath() {
  static std::string Path = [] {
    auto App = createApp("pso");
    OpproxTrainOptions Opts;
    Opts.Profiling.RandomJointSamples = 6;
    Opts.TrainingInputs = {{30, 5}, {45, 6}};
    OpproxArtifact Art = OfflineTrainer::train(*App, Opts).Artifact;
    std::string P = tempPath("serving-pso.opprox.json");
    std::optional<Error> E = Art.save(P);
    EXPECT_FALSE(E.has_value()) << (E ? E->message() : "");
    return P;
  }();
  return Path;
}

/// A loopback client speaking the newline-delimited protocol.
struct TestClient {
  Socket Sock;
  LineFramer Framer{1 << 20};

  static TestClient connectTo(uint16_t Port) {
    TestClient C;
    Expected<Socket> S = connectTcp("127.0.0.1", Port);
    EXPECT_TRUE(static_cast<bool>(S)) << (S ? "" : S.error().message());
    if (S) {
      EXPECT_FALSE(setRecvTimeoutMs(*S, 10000).has_value());
      C.Sock = std::move(*S);
    }
    return C;
  }

  bool sendLine(const std::string &Line) {
    return !sendAll(Sock, Line + "\n").has_value();
  }

  /// Receives one response line; empty optional on EOF/timeout.
  std::optional<std::string> recvLine() {
    std::string Line;
    std::string Chunk;
    while (!Framer.next(Line)) {
      Chunk.clear();
      RecvResult R = recvSome(Sock, Chunk);
      if (R.Status != IoStatus::Ok)
        return std::nullopt;
      if (!Framer.feed(Chunk.data(), Chunk.size()))
        return std::nullopt;
    }
    return Line;
  }

  /// Sends a request and returns the parsed response object.
  Json roundTrip(const std::string &Request) {
    EXPECT_TRUE(sendLine(Request));
    std::optional<std::string> Line = recvLine();
    EXPECT_TRUE(Line.has_value()) << "no response to: " << Request;
    if (!Line)
      return Json();
    Expected<Json> Doc = Json::parse(*Line);
    EXPECT_TRUE(static_cast<bool>(Doc)) << *Line;
    return Doc ? *Doc : Json();
  }
};

bool responseOk(const Json &Response) {
  Expected<bool> Ok = getBool(Response, "ok");
  return Ok && *Ok;
}

std::string responseErrorCode(const Json &Response) {
  Expected<const Json *> ErrorDoc = getObject(Response, "error");
  if (!ErrorDoc)
    return "";
  Expected<std::string> Code = getString(**ErrorDoc, "code");
  return Code ? *Code : "";
}

std::unique_ptr<Server> startTestServer(ServeOptions Opts,
                                        std::vector<ServeAppConfig> Apps = {
                                            {"", artifactPath()}}) {
  Expected<std::unique_ptr<Server>> Srv =
      Server::start(std::move(Apps), Opts);
  EXPECT_TRUE(static_cast<bool>(Srv))
      << (Srv ? "" : Srv.error().message());
  return Srv ? std::move(*Srv) : nullptr;
}

class ServingTest : public ::testing::Test {
protected:
  void TearDown() override { FaultRegistry::global().clear(); }
};

} // namespace

//===----------------------------------------------------------------------===//
// Request framing
//===----------------------------------------------------------------------===//

TEST(LineFramerTest, SplitsLinesAcrossArbitraryFeedBoundaries) {
  LineFramer F(1024);
  std::string Stream = "first\nsecond line\r\nthird\n";
  // Feed byte by byte: framing must not depend on chunk boundaries.
  for (char C : Stream)
    ASSERT_TRUE(F.feed(&C, 1));
  std::string Line;
  ASSERT_TRUE(F.next(Line));
  EXPECT_EQ(Line, "first");
  ASSERT_TRUE(F.next(Line));
  EXPECT_EQ(Line, "second line"); // \r\n accepted, \r stripped.
  ASSERT_TRUE(F.next(Line));
  EXPECT_EQ(Line, "third");
  EXPECT_FALSE(F.next(Line));
  EXPECT_EQ(F.buffered(), 0u);
}

TEST(LineFramerTest, OversizedCompleteLineInOneBurstIsRejected) {
  // The regression this guards: a line that arrives already terminated
  // must still be counted against the cap -- the overflow check cannot
  // only cover the unterminated tail.
  LineFramer F(16);
  std::string Burst(100, 'x');
  Burst += "\n";
  EXPECT_FALSE(F.feed(Burst.data(), Burst.size()));
  EXPECT_TRUE(F.overflowed());
  std::string Line;
  EXPECT_FALSE(F.next(Line));
}

TEST(LineFramerTest, OversizedUnterminatedTailIsRejected) {
  LineFramer F(16);
  std::string Dribble(17, 'y');
  bool Accepted = true;
  for (char C : Dribble)
    Accepted = Accepted && F.feed(&C, 1);
  EXPECT_FALSE(Accepted);
  EXPECT_TRUE(F.overflowed());
}

TEST(LineFramerTest, LinesUnderTheCapPassAfterLongStream) {
  // The per-frame counter must reset at every newline: many small lines
  // must never accumulate toward the cap.
  LineFramer F(32);
  for (int I = 0; I < 1000; ++I) {
    std::string Line = "line\n";
    ASSERT_TRUE(F.feed(Line.data(), Line.size()));
    std::string Out;
    ASSERT_TRUE(F.next(Out));
    EXPECT_EQ(Out, "line");
  }
}

TEST(SocketTest, SendAllRidesOutFullKernelBuffersOnNonBlockingSockets) {
  // Regression: server connections are non-blocking, and a pipelined
  // client can fill the kernel send buffer. sendAll must then wait for
  // writability and resume -- failing after a partial write would leave
  // the peer a truncated line with no way to resynchronize.
  Expected<Socket> Listener = listenTcp("127.0.0.1", 0);
  ASSERT_TRUE(static_cast<bool>(Listener)) << Listener.error().message();
  Expected<uint16_t> Port = boundPort(*Listener);
  ASSERT_TRUE(static_cast<bool>(Port)) << Port.error().message();
  Expected<Socket> Client = connectTcp("127.0.0.1", *Port);
  ASSERT_TRUE(static_cast<bool>(Client)) << Client.error().message();
  Socket Accepted;
  ASSERT_EQ(acceptConnection(*Listener, Accepted).Status, IoStatus::Ok);

  // Shrink the send buffer and go non-blocking, exactly like a served
  // connection: a multi-megabyte payload must hit EAGAIN mid-send.
  int SndBuf = 4096;
  ASSERT_EQ(::setsockopt(Accepted.fd(), SOL_SOCKET, SO_SNDBUF, &SndBuf,
                         sizeof(SndBuf)),
            0);
  int Flags = ::fcntl(Accepted.fd(), F_GETFL, 0);
  ASSERT_EQ(::fcntl(Accepted.fd(), F_SETFL, Flags | O_NONBLOCK), 0);

  std::string Payload;
  for (size_t I = 0; Payload.size() < (4u << 20); ++I)
    Payload += "line-" + std::to_string(I) + "\n";

  std::string Received;
  std::thread Reader([&] {
    // Let the sender fill every buffer first so EAGAIN is guaranteed.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::string Chunk;
    while (Received.size() < Payload.size()) {
      Chunk.clear();
      if (recvSome(*Client, Chunk, 64 * 1024).Status != IoStatus::Ok)
        break;
      Received += Chunk;
    }
  });
  std::optional<Error> E = sendAll(Accepted, Payload);
  EXPECT_FALSE(E.has_value()) << (E ? E->message() : "");
  Accepted.close(); // EOF for the reader in case the send failed short.
  Reader.join();
  EXPECT_EQ(Received, Payload) << "received " << Received.size() << " of "
                               << Payload.size() << " bytes";
}

//===----------------------------------------------------------------------===//
// Malformed-request corpus (tests/corpus/wire/)
//===----------------------------------------------------------------------===//

namespace {

std::vector<std::filesystem::path> wireCorpusFiles() {
  std::vector<std::filesystem::path> Files;
  for (const auto &Entry :
       std::filesystem::directory_iterator(OPPROX_TEST_WIRE_CORPUS_DIR))
    if (Entry.is_regular_file())
      Files.push_back(Entry.path());
  std::sort(Files.begin(), Files.end());
  return Files;
}

/// Corpus naming contract: "<expected-error-code>--<description>.txt".
std::string expectedCode(const std::filesystem::path &Path) {
  std::string Stem = Path.stem().string();
  return Stem.substr(0, Stem.find("--"));
}

class WireCorpusTest
    : public ::testing::TestWithParam<std::filesystem::path> {};

std::string wireParamName(
    const ::testing::TestParamInfo<std::filesystem::path> &Info) {
  std::string Name = Info.param.stem().string();
  for (char &C : Name)
    if (!std::isalnum(static_cast<unsigned char>(C)))
      C = '_';
  return Name;
}

} // namespace

TEST(WireCorpusSuite, CorpusDirectoryIsPopulated) {
  // Guards against a path typo silently instantiating zero cases.
  EXPECT_GE(wireCorpusFiles().size(), 12u);
}

TEST_P(WireCorpusTest, ParserRejectsWithTheAdvertisedCode) {
  Expected<std::string> Text = readFile(GetParam().string());
  ASSERT_TRUE(static_cast<bool>(Text)) << GetParam();
  Expected<ServeRequest> Req = parseServeRequest(*Text);
  ASSERT_FALSE(static_cast<bool>(Req))
      << GetParam() << " parsed successfully but must be rejected";
  EXPECT_EQ(requestErrorCode(Req.error()), expectedCode(GetParam()))
      << GetParam() << ": " << Req.error().message();
}

INSTANTIATE_TEST_SUITE_P(Corpus, WireCorpusTest,
                         ::testing::ValuesIn(wireCorpusFiles()),
                         wireParamName);

//===----------------------------------------------------------------------===//
// Request parsing (well-formed)
//===----------------------------------------------------------------------===//

TEST(WireProtocolTest, MinimalRequestGetsDocumentedDefaults) {
  Expected<ServeRequest> Req = parseServeRequest("{\"budget\": 7.5}");
  ASSERT_TRUE(static_cast<bool>(Req)) << Req.error().message();
  EXPECT_EQ(Req->Budget, 7.5);
  EXPECT_TRUE(Req->App.empty());
  EXPECT_TRUE(Req->Input.empty());
  // Absent members stay absent, so the server's configured base
  // OptimizeOptions -- not a parser-invented default -- decide.
  EXPECT_FALSE(Req->Confidence.has_value());
  EXPECT_FALSE(Req->Aggressive.has_value());
  EXPECT_TRUE(Req->Id.isNull());
}

TEST(WireProtocolTest, FullRequestRoundTripsEveryMember) {
  Expected<ServeRequest> Req = parseServeRequest(
      "{\"id\": \"r-1\", \"app\": \"pso\", \"budget\": 10, "
      "\"input\": [30, 5], \"confidence\": 0.9, \"aggressive\": true}");
  ASSERT_TRUE(static_cast<bool>(Req)) << Req.error().message();
  EXPECT_EQ(Req->Id.asString(), "r-1");
  EXPECT_EQ(Req->App, "pso");
  EXPECT_EQ(Req->Input, (std::vector<double>{30.0, 5.0}));
  ASSERT_TRUE(Req->Confidence.has_value());
  EXPECT_EQ(*Req->Confidence, 0.9);
  ASSERT_TRUE(Req->Aggressive.has_value());
  EXPECT_TRUE(*Req->Aggressive);
}

TEST(WireProtocolTest, ErrorResponseEchoesIdAndCode) {
  std::string Line = errorResponseLine(Json(42.0), errc::Overloaded, "full");
  Expected<Json> Doc = Json::parse(Line);
  ASSERT_TRUE(static_cast<bool>(Doc));
  EXPECT_FALSE(responseOk(*Doc));
  EXPECT_EQ(responseErrorCode(*Doc), "overloaded");
  Expected<double> Id = getNumber(*Doc, "id");
  ASSERT_TRUE(static_cast<bool>(Id));
  EXPECT_EQ(*Id, 42.0);
}

//===----------------------------------------------------------------------===//
// Server lifecycle over loopback
//===----------------------------------------------------------------------===//

TEST_F(ServingTest, StartRefusesMissingArtifact) {
  Expected<std::unique_ptr<Server>> Srv = Server::start(
      {{"", tempPath("no-such-artifact.json")}}, ServeOptions{});
  EXPECT_FALSE(static_cast<bool>(Srv));
}

TEST_F(ServingTest, StartRefusesDuplicateAppNames) {
  Expected<std::unique_ptr<Server>> Srv = Server::start(
      {{"dup", artifactPath()}, {"dup", artifactPath()}}, ServeOptions{});
  EXPECT_FALSE(static_cast<bool>(Srv));
}

TEST_F(ServingTest, ServesRequestsAndReportsErrorsInOrder) {
  ServeOptions Opts;
  Opts.Shards = 2;
  std::unique_ptr<Server> Srv = startTestServer(Opts);
  ASSERT_NE(Srv, nullptr);
  EXPECT_EQ(Srv->appNames(), std::vector<std::string>{"pso"});

  TestClient C = TestClient::connectTo(Srv->port());
  Json Ok = C.roundTrip("{\"budget\": 10, \"id\": 1}");
  ASSERT_TRUE(responseOk(Ok));
  Expected<const Json *> Result = getObject(Ok, "result");
  ASSERT_TRUE(static_cast<bool>(Result));
  Expected<std::string> App = getString(**Result, "app");
  ASSERT_TRUE(static_cast<bool>(App));
  EXPECT_EQ(*App, "pso");

  // A malformed line mid-stream gets its error response in order and
  // leaves the connection serving.
  Json Bad = C.roundTrip("{broken");
  EXPECT_FALSE(responseOk(Bad));
  EXPECT_EQ(responseErrorCode(Bad), "parse_error");

  Json Unknown = C.roundTrip("{\"budget\": 5, \"app\": \"nope\"}");
  EXPECT_FALSE(responseOk(Unknown));
  EXPECT_EQ(responseErrorCode(Unknown), "unknown_app");

  Json Invalid = C.roundTrip("{\"budget\": -3}");
  EXPECT_FALSE(responseOk(Invalid));
  EXPECT_EQ(responseErrorCode(Invalid), "bad_request");

  Json StillOk = C.roundTrip("{\"budget\": 10, \"id\": 2}");
  EXPECT_TRUE(responseOk(StillOk));
  Srv->shutdown();
}

TEST_F(ServingTest, NumbersOutsideTheRfcGrammarAreParseErrors) {
  // SERVING.md promises parse_error for a line that is not valid JSON;
  // these budgets used to be served as 5, 0.5, 5 and 1.
  ServeOptions Opts;
  Opts.Shards = 1;
  std::unique_ptr<Server> Srv = startTestServer(Opts);
  ASSERT_NE(Srv, nullptr);
  TestClient C = TestClient::connectTo(Srv->port());
  for (const char *Budget : {"+5", ".5", "5.", "01"}) {
    Json Response =
        C.roundTrip(std::string("{\"budget\": ") + Budget + "}");
    EXPECT_FALSE(responseOk(Response)) << Budget;
    EXPECT_EQ(responseErrorCode(Response), "parse_error") << Budget;
  }
  EXPECT_TRUE(responseOk(C.roundTrip("{\"budget\": 5}")));
}

TEST_F(ServingTest, MultipleResidentArtifactsAreAddressedByName) {
  ServeOptions Opts;
  Opts.Shards = 1;
  std::unique_ptr<Server> Srv = startTestServer(
      Opts, {{"alpha", artifactPath()}, {"beta", artifactPath()}});
  ASSERT_NE(Srv, nullptr);
  EXPECT_EQ(Srv->appNames(), (std::vector<std::string>{"alpha", "beta"}));

  TestClient C = TestClient::connectTo(Srv->port());
  EXPECT_TRUE(responseOk(C.roundTrip("{\"budget\": 10, \"app\": \"beta\"}")));

  // With several residents an unaddressed request is ambiguous.
  Json Ambiguous = C.roundTrip("{\"budget\": 10}");
  EXPECT_FALSE(responseOk(Ambiguous));
  EXPECT_EQ(responseErrorCode(Ambiguous), "bad_request");
}

TEST_F(ServingTest, ServerConfiguredOptimizeOptionsApplyWhenRequestOmitsThem) {
  // Regression guard: a request without "confidence"/"aggressive" must
  // run under the embedder-configured base OptimizeOptions (Server.h
  // documents ServeOptions::Optimize as the default for every request),
  // not under parser-invented defaults that silently override them.
  ServeOptions Opts;
  Opts.Shards = 1;
  Opts.Optimize.ConfidenceP = 0.5;
  Opts.Optimize.Conservative = false;
  std::unique_ptr<Server> Srv = startTestServer(Opts);
  ASSERT_NE(Srv, nullptr);

  Expected<OpproxRuntime> Local = OpproxRuntime::load(artifactPath());
  ASSERT_TRUE(static_cast<bool>(Local)) << Local.error().message();
  const std::vector<double> &Input = Local->artifact().DefaultInput;
  OptimizeOptions Base = Opts.Optimize;
  Base.NumThreads = 1; // start() forces per-request serial execution.
  Base.Pool = nullptr;
  Expected<OptimizationResult> R =
      Local->tryOptimizeDetailed(Input, 10.0, Base);
  ASSERT_TRUE(static_cast<bool>(R)) << R.error().message();
  std::string LocalDoc =
      optimizationResultJson(Local->artifact(), 10.0, Input, *R).dump();

  TestClient C = TestClient::connectTo(Srv->port());
  Json Response = C.roundTrip("{\"budget\": 10}");
  ASSERT_TRUE(responseOk(Response));
  Expected<const Json *> Result = getObject(Response, "result");
  ASSERT_TRUE(static_cast<bool>(Result));
  EXPECT_EQ((*Result)->dump(), LocalDoc);
}

TEST_F(ServingTest, FeedbackRequiresTheOnlineControlOptIn) {
  // ServeOptions::OnlineControl defaults to off: a "feedback" member is
  // a bad request, not a silently ignored one, and the connection keeps
  // serving afterwards.
  ServeOptions Opts;
  Opts.Shards = 1;
  std::unique_ptr<Server> Srv = startTestServer(Opts);
  ASSERT_NE(Srv, nullptr);
  TestClient C = TestClient::connectTo(Srv->port());
  Json Rejected = C.roundTrip("{\"budget\": 10, \"feedback\": [1.5]}");
  EXPECT_FALSE(responseOk(Rejected));
  EXPECT_EQ(responseErrorCode(Rejected), "bad_request");
  Json Plain = C.roundTrip("{\"budget\": 10}");
  EXPECT_TRUE(responseOk(Plain));
}

TEST_F(ServingTest, FeedbackArityBeyondThePhaseCountIsRejected) {
  ServeOptions Opts;
  Opts.Shards = 1;
  Opts.OnlineControl = true;
  std::unique_ptr<Server> Srv = startTestServer(Opts);
  ASSERT_NE(Srv, nullptr);
  TestClient C = TestClient::connectTo(Srv->port());
  // The shared artifact has 4 phases; 5 observations cannot map.
  Json Response =
      C.roundTrip("{\"budget\": 10, \"feedback\": [0, 0, 0, 0, 0]}");
  EXPECT_FALSE(responseOk(Response));
  EXPECT_EQ(responseErrorCode(Response), "bad_request");
}

TEST_F(ServingTest, FeedbackStepsTheControllerAndReportsControlState) {
  ServeOptions Opts;
  Opts.Shards = 1;
  Opts.OnlineControl = true;
  std::unique_ptr<Server> Srv = startTestServer(Opts);
  ASSERT_NE(Srv, nullptr);
  TestClient C = TestClient::connectTo(Srv->port());

  // Zero-drift feedback: the controller must not react, and the planned
  // schedule must match the plain (feedback-free) optimize response.
  Json Plain = C.roundTrip("{\"budget\": 10}");
  ASSERT_TRUE(responseOk(Plain));
  Expected<const Json *> PlainResult = getObject(Plain, "result");
  ASSERT_TRUE(static_cast<bool>(PlainResult));
  Expected<const Json *> PlainSchedule =
      getMember(**PlainResult, "schedule");
  ASSERT_TRUE(static_cast<bool>(PlainSchedule));

  Json Calm = C.roundTrip("{\"budget\": 10, \"feedback\": [0, 0, 0, 0]}");
  ASSERT_TRUE(responseOk(Calm));
  Expected<const Json *> CalmResult = getObject(Calm, "result");
  ASSERT_TRUE(static_cast<bool>(CalmResult));
  Expected<const Json *> Control = getObject(**CalmResult, "control");
  ASSERT_TRUE(static_cast<bool>(Control));
  Expected<double> NextPhase = getNumber(**Control, "next_phase");
  ASSERT_TRUE(static_cast<bool>(NextPhase));
  EXPECT_EQ(*NextPhase, 4.0);
  Expected<double> Corrections = getNumber(**Control, "corrections");
  ASSERT_TRUE(static_cast<bool>(Corrections));
  EXPECT_EQ(*Corrections, 0.0);
  Expected<const Json *> CalmSchedule = getMember(**CalmResult, "schedule");
  ASSERT_TRUE(static_cast<bool>(CalmSchedule));
  EXPECT_EQ((*CalmSchedule)->dump(), (*PlainSchedule)->dump());

  // A loud first-phase overrun: the controller distrusts and reports
  // its accounting; the response is still a success.
  Json Hot = C.roundTrip("{\"budget\": 10, \"feedback\": [8.0]}");
  ASSERT_TRUE(responseOk(Hot));
  Expected<const Json *> HotResult = getObject(Hot, "result");
  ASSERT_TRUE(static_cast<bool>(HotResult));
  Expected<const Json *> HotControl = getObject(**HotResult, "control");
  ASSERT_TRUE(static_cast<bool>(HotControl));
  Expected<double> Distrusts = getNumber(**HotControl, "distrusts");
  ASSERT_TRUE(static_cast<bool>(Distrusts));
  EXPECT_GE(*Distrusts, 1.0);
  Expected<double> Spent = getNumber(**HotControl, "spent_qos");
  ASSERT_TRUE(static_cast<bool>(Spent));
  EXPECT_EQ(*Spent, 8.0);
  Expected<double> Remaining = getNumber(**HotControl, "remaining_budget");
  ASSERT_TRUE(static_cast<bool>(Remaining));
  EXPECT_EQ(*Remaining, 2.0);
}

TEST_F(ServingTest, HotSwapUnderLoadLosesNoRequests) {
  ServeOptions Opts;
  Opts.Shards = 2;
  std::unique_ptr<Server> Srv = startTestServer(Opts);
  ASSERT_NE(Srv, nullptr);
  Counter &HotSwaps = MetricsRegistry::global().counter("serve.hot_swaps");
  uint64_t SwapsBefore = HotSwaps.value();

  // A client hammers sequential requests while the main thread swaps
  // the artifact table; every request must get a successful response.
  std::atomic<size_t> OkCount{0};
  std::atomic<bool> ClientFailed{false};
  constexpr size_t NumRequests = 60;
  std::thread Client([&] {
    TestClient C = TestClient::connectTo(Srv->port());
    for (size_t I = 0; I < NumRequests; ++I) {
      Json Response = C.roundTrip("{\"budget\": 10, \"id\": " +
                                  std::to_string(I) + "}");
      if (responseOk(Response))
        OkCount.fetch_add(1);
      else
        ClientFailed.store(true);
    }
  });
  for (int Swap = 0; Swap < 4; ++Swap) {
    EXPECT_EQ(Srv->hotSwap(), 1u);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  Client.join();
  EXPECT_EQ(OkCount.load(), NumRequests);
  EXPECT_FALSE(ClientFailed.load());
  EXPECT_EQ(HotSwaps.value(), SwapsBefore + 4);
  Srv->shutdown();
}

TEST_F(ServingTest, HotSwapKeepsServingWhenTheFileTurnsBad) {
  // Copy the artifact so the test can corrupt it without disturbing the
  // shared one, and disable the last-good cache so the reload genuinely
  // fails (with it on, rung 2 of the ladder would resurrect the bytes).
  std::string BadPath = tempPath("serving-hot-swap-bad.opprox.json");
  std::filesystem::copy_file(artifactPath(), BadPath,
                             std::filesystem::copy_options::overwrite_existing);
  ServeOptions Opts;
  Opts.Shards = 1;
  Opts.Load.UseLastGood = false;
  Opts.Load.Retry.MaxAttempts = 1;
  std::unique_ptr<Server> Srv = startTestServer(Opts, {{"", BadPath}});
  ASSERT_NE(Srv, nullptr);
  Counter &Failures =
      MetricsRegistry::global().counter("serve.hot_swap_failures");
  uint64_t FailuresBefore = Failures.value();

  ASSERT_FALSE(writeFile(BadPath, "{not an artifact").has_value());
  EXPECT_EQ(Srv->hotSwap(), 0u); // Nothing reloaded...
  EXPECT_EQ(Failures.value(), FailuresBefore + 1);

  // ...but the resident version keeps serving.
  TestClient C = TestClient::connectTo(Srv->port());
  EXPECT_TRUE(responseOk(C.roundTrip("{\"budget\": 10}")));
}

TEST_F(ServingTest, DrainAnswersBufferedRequestsBeforeStopping) {
  ServeOptions Opts;
  Opts.Shards = 1;
  std::unique_ptr<Server> Srv = startTestServer(Opts);
  ASSERT_NE(Srv, nullptr);

  TestClient C = TestClient::connectTo(Srv->port());
  ASSERT_TRUE(C.sendLine("{\"budget\": 10, \"id\": \"drain\"}"));
  // Give loopback time to deliver, then drain: the shard's final pass
  // must answer what already arrived, then close.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Srv->shutdown();

  std::optional<std::string> Line = C.recvLine();
  ASSERT_TRUE(Line.has_value()) << "request dropped during drain";
  Expected<Json> Doc = Json::parse(*Line);
  ASSERT_TRUE(static_cast<bool>(Doc));
  EXPECT_TRUE(responseOk(*Doc));
  EXPECT_FALSE(C.recvLine().has_value()) << "connection must close on drain";

  // shutdown() is idempotent; the destructor repeats it harmlessly.
  Srv->shutdown();
}

//===----------------------------------------------------------------------===//
// Hostile-client bounds and load shedding
//===----------------------------------------------------------------------===//

TEST_F(ServingTest, OversizedRequestIsRefusedAndConnectionClosed) {
  ServeOptions Opts;
  Opts.Shards = 1;
  Opts.MaxRequestBytes = 128;
  std::unique_ptr<Server> Srv = startTestServer(Opts);
  ASSERT_NE(Srv, nullptr);
  Counter &Oversized = MetricsRegistry::global().counter("serve.oversized");
  uint64_t Before = Oversized.value();

  TestClient C = TestClient::connectTo(Srv->port());
  ASSERT_TRUE(C.sendLine(std::string(2000, 'a')));
  std::optional<std::string> Line = C.recvLine();
  ASSERT_TRUE(Line.has_value());
  Expected<Json> Doc = Json::parse(*Line);
  ASSERT_TRUE(static_cast<bool>(Doc));
  EXPECT_EQ(responseErrorCode(*Doc), "oversized");
  EXPECT_FALSE(C.recvLine().has_value()) << "connection must close";
  EXPECT_EQ(Oversized.value(), Before + 1);
}

TEST_F(ServingTest, IdleConnectionIsClosedAfterReadTimeout) {
  ServeOptions Opts;
  Opts.Shards = 1;
  Opts.ReadTimeoutMs = 100;
  std::unique_ptr<Server> Srv = startTestServer(Opts);
  ASSERT_NE(Srv, nullptr);
  Counter &Timeouts = MetricsRegistry::global().counter("serve.timeouts");
  uint64_t Before = Timeouts.value();

  TestClient C = TestClient::connectTo(Srv->port());
  // Send nothing: the server must close us, not wait forever.
  EXPECT_FALSE(C.recvLine().has_value());
  EXPECT_GE(Timeouts.value(), Before + 1);
}

TEST_F(ServingTest, PipelineBeyondQueueCapacityIsShedNotQueued) {
  ServeOptions Opts;
  Opts.Shards = 1;
  Opts.QueueCapacity = 1;
  std::unique_ptr<Server> Srv = startTestServer(Opts);
  ASSERT_NE(Srv, nullptr);

  // One burst of pipelined requests far beyond the per-cycle budget:
  // every line still gets a response (ok or a structured `overloaded`),
  // nothing hangs, order is preserved.
  constexpr size_t Burst = 200;
  TestClient C = TestClient::connectTo(Srv->port());
  std::string Lines;
  for (size_t I = 0; I < Burst; ++I)
    Lines += "{\"budget\": 10, \"id\": " + std::to_string(I) + "}\n";
  ASSERT_FALSE(sendAll(C.Sock, Lines).has_value());

  size_t Ok = 0, Shed = 0, NextId = 0;
  for (size_t I = 0; I < Burst; ++I) {
    std::optional<std::string> Line = C.recvLine();
    ASSERT_TRUE(Line.has_value()) << "response " << I << " missing";
    Expected<Json> Doc = Json::parse(*Line);
    ASSERT_TRUE(static_cast<bool>(Doc));
    if (responseOk(*Doc)) {
      ++Ok;
      // Successful responses echo ids in request order.
      Expected<double> Id = getNumber(*Doc, "id");
      ASSERT_TRUE(static_cast<bool>(Id));
      EXPECT_GE(static_cast<size_t>(*Id), NextId);
      NextId = static_cast<size_t>(*Id) + 1;
    } else {
      ASSERT_EQ(responseErrorCode(*Doc), "overloaded") << *Line;
      ++Shed;
    }
  }
  EXPECT_EQ(Ok + Shed, Burst);
  EXPECT_GE(Ok, 1u);
  EXPECT_GE(Shed, 1u) << "a 200-deep pipeline against capacity 1 must shed";
}

TEST_F(ServingTest, ConnectionsBeyondCapacityAreShedWithAResponse) {
  ServeOptions Opts;
  Opts.Shards = 1;
  Opts.MaxConnectionsPerShard = 1;
  std::unique_ptr<Server> Srv = startTestServer(Opts);
  ASSERT_NE(Srv, nullptr);

  TestClient First = TestClient::connectTo(Srv->port());
  EXPECT_TRUE(responseOk(First.roundTrip("{\"budget\": 10}")));

  // The shard is full: the acceptor answers and closes.
  TestClient Second = TestClient::connectTo(Srv->port());
  std::optional<std::string> Line = Second.recvLine();
  ASSERT_TRUE(Line.has_value());
  Expected<Json> Doc = Json::parse(*Line);
  ASSERT_TRUE(static_cast<bool>(Doc));
  EXPECT_EQ(responseErrorCode(*Doc), "overloaded");
  EXPECT_FALSE(Second.recvLine().has_value());

  // The admitted connection is unaffected.
  EXPECT_TRUE(responseOk(First.roundTrip("{\"budget\": 10}")));
}

//===----------------------------------------------------------------------===//
// Degradation over the wire
//===----------------------------------------------------------------------===//

TEST_F(ServingTest, DegradedPhasesAreReportedPerResponse) {
  ServeOptions Opts;
  Opts.Shards = 1;
  std::unique_ptr<Server> Srv = startTestServer(Opts);
  ASSERT_NE(Srv, nullptr);
  TestClient C = TestClient::connectTo(Srv->port());

  // Healthy first: the baseline response reports zero degradations.
  Json Healthy = C.roundTrip("{\"budget\": 10}");
  ASSERT_TRUE(responseOk(Healthy));
  Expected<const Json *> Result = getObject(Healthy, "result");
  ASSERT_TRUE(static_cast<bool>(Result));
  Expected<size_t> Degraded = getSize(**Result, "degraded_phases");
  ASSERT_TRUE(static_cast<bool>(Degraded));
  EXPECT_EQ(*Degraded, 0u);

  // Arm NaN predictions: rung 3 of the ladder serves exact
  // configurations per phase, and the count crosses the wire. A fresh
  // budget keys past the schedule cache (the healthy result above is
  // cached and would otherwise answer without touching the models).
  ASSERT_FALSE(FaultRegistry::global()
                   .configure("model.predict.nan:1.0:42")
                   .has_value());
  Json Faulty = C.roundTrip("{\"budget\": 12}");
  ASSERT_TRUE(responseOk(Faulty)) << "degradation must not fail the request";
  Result = getObject(Faulty, "result");
  ASSERT_TRUE(static_cast<bool>(Result));
  Degraded = getSize(**Result, "degraded_phases");
  ASSERT_TRUE(static_cast<bool>(Degraded));
  EXPECT_GE(*Degraded, 1u);

  // Disarm: the same connection recovers to clean responses. Repeating
  // the faulty request's budget also proves the degraded result was not
  // cached -- a memoized fallback would outlive the fault.
  FaultRegistry::global().clear();
  Json Recovered = C.roundTrip("{\"budget\": 12}");
  ASSERT_TRUE(responseOk(Recovered));
  Result = getObject(Recovered, "result");
  ASSERT_TRUE(static_cast<bool>(Result));
  Degraded = getSize(**Result, "degraded_phases");
  ASSERT_TRUE(static_cast<bool>(Degraded));
  EXPECT_EQ(*Degraded, 0u);
}

//===----------------------------------------------------------------------===//
// Schedule cache across the wire
//===----------------------------------------------------------------------===//

TEST_F(ServingTest, StatsRequestReportsCacheCounters) {
  ServeOptions Opts;
  Opts.Shards = 1;
  std::unique_ptr<Server> Srv = startTestServer(Opts);
  ASSERT_NE(Srv, nullptr);
  TestClient C = TestClient::connectTo(Srv->port());

  uint64_t HitsBefore = MetricsRegistry::global().counter("cache.hits").value();

  // Identical requests: the first misses and computes, the repeats hit.
  for (int I = 0; I < 3; ++I)
    ASSERT_TRUE(responseOk(C.roundTrip("{\"budget\": 10}")));

  // The stats request waives the required budget and answers with the
  // counter snapshot instead of an optimization.
  Json Stats = C.roundTrip("{\"stats\": true, \"id\": 99}");
  ASSERT_TRUE(responseOk(Stats));
  Expected<const Json *> Result = getObject(Stats, "result");
  ASSERT_TRUE(static_cast<bool>(Result));
  Expected<const Json *> Cache = getObject(**Result, "cache");
  ASSERT_TRUE(static_cast<bool>(Cache));
  Expected<size_t> Hits = getSize(**Cache, "hits");
  ASSERT_TRUE(static_cast<bool>(Hits));
  EXPECT_GE(*Hits, HitsBefore + 2)
      << "two repeats of a cached request must be two hits";
  EXPECT_TRUE(static_cast<bool>(getSize(**Cache, "misses")));
  EXPECT_TRUE(static_cast<bool>(getSize(**Cache, "negative_hits")));
  EXPECT_TRUE(static_cast<bool>(getSize(**Cache, "evictions")));
}

//===----------------------------------------------------------------------===//
// Live probes: {"stats": true} / {"stats": "delta"} / {"health": true}
// (docs/OBSERVABILITY.md, "Live probes")
//===----------------------------------------------------------------------===//

TEST_F(ServingTest, StatsProbeReturnsTheFullMetricsSnapshot) {
  ServeOptions Opts;
  Opts.Shards = 1;
  std::unique_ptr<Server> Srv = startTestServer(Opts);
  ASSERT_NE(Srv, nullptr);
  TestClient C = TestClient::connectTo(Srv->port());
  for (int I = 0; I < 4; ++I)
    ASSERT_TRUE(responseOk(C.roundTrip("{\"budget\": 10}")));

  Json Stats = C.roundTrip("{\"stats\": true, \"id\": \"s\"}");
  ASSERT_TRUE(responseOk(Stats));
  Expected<const Json *> Result = getObject(Stats, "result");
  ASSERT_TRUE(static_cast<bool>(Result));
  // Same document --metrics-out writes, plus the legacy cache rollup.
  Expected<std::string> Schema = getString(**Result, "schema");
  ASSERT_TRUE(static_cast<bool>(Schema));
  EXPECT_EQ(*Schema, "opprox-metrics-1");
  EXPECT_TRUE(static_cast<bool>(getObject(**Result, "counters")));
  EXPECT_TRUE(static_cast<bool>(getObject(**Result, "gauges")));
  EXPECT_TRUE(static_cast<bool>(getObject(**Result, "cache")));
  Expected<const Json *> Hists = getObject(**Result, "histograms");
  ASSERT_TRUE(static_cast<bool>(Hists));
  EXPECT_TRUE((*Hists)->find("serve.request_ms"));
  for (const char *Stage :
       {"parse", "plan", "lookup", "compute", "serialize"})
    EXPECT_TRUE((*Hists)->find(std::string("serve.stage_ms.") + Stage))
        << Stage;
}

TEST_F(ServingTest, HealthProbeReportsServerFactsAndWindowedRates) {
  ServeOptions Opts;
  Opts.Shards = 2;
  std::unique_ptr<Server> Srv = startTestServer(Opts);
  ASSERT_NE(Srv, nullptr);
  TestClient C = TestClient::connectTo(Srv->port());
  for (int I = 0; I < 3; ++I)
    ASSERT_TRUE(responseOk(C.roundTrip("{\"budget\": 10}")));

  Json First = C.roundTrip("{\"health\": true}");
  ASSERT_TRUE(responseOk(First));
  Expected<const Json *> Result = getObject(First, "result");
  ASSERT_TRUE(static_cast<bool>(Result));
  Expected<const Json *> Health = getObject(**Result, "health");
  ASSERT_TRUE(static_cast<bool>(Health));

  Expected<std::string> Status = getString(**Health, "status");
  ASSERT_TRUE(static_cast<bool>(Status));
  EXPECT_EQ(*Status, "ok");
  Expected<double> Uptime = getNumber(**Health, "uptime_s");
  ASSERT_TRUE(static_cast<bool>(Uptime));
  EXPECT_GT(*Uptime, 0.0);
  Expected<size_t> Generation = getSize(**Health, "artifact_generation");
  ASSERT_TRUE(static_cast<bool>(Generation));
  EXPECT_EQ(*Generation, 0u);
  Expected<size_t> Shards = getSize(**Health, "shards");
  ASSERT_TRUE(static_cast<bool>(Shards));
  EXPECT_EQ(*Shards, 2u);
  Expected<const Json *> Conns = getObject(**Health, "connections");
  ASSERT_TRUE(static_cast<bool>(Conns));
  Expected<size_t> Capacity = getSize(**Conns, "capacity");
  ASSERT_TRUE(static_cast<bool>(Capacity));
  EXPECT_EQ(*Capacity, 2 * Opts.MaxConnectionsPerShard);
  Expected<const Json *> Window = getObject(**Health, "window");
  ASSERT_TRUE(static_cast<bool>(Window));
  Expected<size_t> Requests = getSize(**Window, "requests");
  ASSERT_TRUE(static_cast<bool>(Requests));
  EXPECT_EQ(*Requests, 3u);
  EXPECT_TRUE(static_cast<bool>(getNumber(**Window, "shed_rate")));

  // Health windows are relative to the previous health probe: a quiet
  // gap reports zero requests. And hot swaps bump the generation.
  Srv->hotSwap();
  Json Second = C.roundTrip("{\"health\": true}");
  ASSERT_TRUE(responseOk(Second));
  Expected<const Json *> Result2 = getObject(Second, "result");
  ASSERT_TRUE(static_cast<bool>(Result2));
  Expected<const Json *> Health2 = getObject(**Result2, "health");
  ASSERT_TRUE(static_cast<bool>(Health2));
  Expected<size_t> Generation2 = getSize(**Health2, "artifact_generation");
  ASSERT_TRUE(static_cast<bool>(Generation2));
  EXPECT_EQ(*Generation2, 1u);
  Expected<const Json *> Window2 = getObject(**Health2, "window");
  ASSERT_TRUE(static_cast<bool>(Window2));
  Expected<size_t> Requests2 = getSize(**Window2, "requests");
  ASSERT_TRUE(static_cast<bool>(Requests2));
  EXPECT_EQ(*Requests2, 0u);
}

TEST_F(ServingTest, DeltaProbeWindowsAreGaplessAndPerServer) {
  ServeOptions Opts;
  Opts.Shards = 1;
  std::unique_ptr<Server> Srv = startTestServer(Opts);
  ASSERT_NE(Srv, nullptr);
  TestClient C = TestClient::connectTo(Srv->port());

  for (int I = 0; I < 5; ++I)
    ASSERT_TRUE(responseOk(C.roundTrip("{\"budget\": 10}")));
  Json First = C.roundTrip("{\"stats\": \"delta\"}");
  ASSERT_TRUE(responseOk(First));
  Expected<const Json *> Result = getObject(First, "result");
  ASSERT_TRUE(static_cast<bool>(Result));
  Expected<std::string> Schema = getString(**Result, "schema");
  ASSERT_TRUE(static_cast<bool>(Schema));
  EXPECT_EQ(*Schema, "opprox-metrics-delta-1");
  Expected<const Json *> Counters = getObject(**Result, "counters");
  ASSERT_TRUE(static_cast<bool>(Counters));
  Expected<double> Requests = getNumber(**Counters, "serve.requests");
  ASSERT_TRUE(static_cast<bool>(Requests));
  EXPECT_DOUBLE_EQ(*Requests, 5.0)
      << "the first delta window starts at server construction";

  // The next window carries only the traffic since the previous delta
  // probe -- and the probes themselves never count as requests.
  for (int I = 0; I < 2; ++I)
    ASSERT_TRUE(responseOk(C.roundTrip("{\"budget\": 10}")));
  Json Second = C.roundTrip("{\"stats\": \"delta\"}");
  ASSERT_TRUE(responseOk(Second));
  Expected<const Json *> Result2 = getObject(Second, "result");
  ASSERT_TRUE(static_cast<bool>(Result2));
  Expected<const Json *> Counters2 = getObject(**Result2, "counters");
  ASSERT_TRUE(static_cast<bool>(Counters2));
  Expected<double> Requests2 = getNumber(**Counters2, "serve.requests");
  ASSERT_TRUE(static_cast<bool>(Requests2));
  EXPECT_DOUBLE_EQ(*Requests2, 2.0);
}

TEST_F(ServingTest, ProbesAreCountedAsProbesNotRequests) {
  ServeOptions Opts;
  Opts.Shards = 1;
  std::unique_ptr<Server> Srv = startTestServer(Opts);
  ASSERT_NE(Srv, nullptr);
  TestClient C = TestClient::connectTo(Srv->port());

  MetricsRegistry &Reg = MetricsRegistry::global();
  uint64_t SerializeBefore =
      Reg.histogram("serve.stage_ms.serialize", Histogram::stageBoundsMs())
          .count();
  ASSERT_TRUE(responseOk(C.roundTrip("{\"budget\": 10}")));
  // The shard records instruments after writing the response; wait for
  // the optimize request's records to land before taking the baseline.
  for (int Spin = 0;
       Reg.histogram("serve.stage_ms.serialize").count() <
           SerializeBefore + 1 &&
       Spin < 1000;
       ++Spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  uint64_t RequestsBefore = Reg.counter("serve.requests").value();
  uint64_t ProbesBefore = Reg.counter("serve.probes").value();
  uint64_t LatencyCountBefore =
      Reg.histogram("serve.request_ms").count();

  ASSERT_TRUE(responseOk(C.roundTrip("{\"stats\": true}")));
  ASSERT_TRUE(responseOk(C.roundTrip("{\"stats\": \"delta\"}")));
  ASSERT_TRUE(responseOk(C.roundTrip("{\"health\": true}")));

  // Monitoring must not pollute the latency the SLO is written against.
  EXPECT_EQ(Reg.counter("serve.requests").value(), RequestsBefore);
  EXPECT_EQ(Reg.histogram("serve.request_ms").count(), LatencyCountBefore);
  EXPECT_EQ(Reg.counter("serve.probes").value(), ProbesBefore + 3);
}

TEST_F(ServingTest, StageAttributionSumsToRequestLatency) {
  ServeOptions Opts;
  Opts.Shards = 1;
  std::unique_ptr<Server> Srv = startTestServer(Opts);
  ASSERT_NE(Srv, nullptr);
  TestClient C = TestClient::connectTo(Srv->port());

  MetricsRegistry &Reg = MetricsRegistry::global();
  const char *StageNames[] = {
      "serve.stage_ms.parse", "serve.stage_ms.plan", "serve.stage_ms.lookup",
      "serve.stage_ms.compute", "serve.stage_ms.serialize"};
  double StageSumBefore = 0.0;
  for (const char *Name : StageNames)
    StageSumBefore += Reg.histogram(Name, Histogram::stageBoundsMs()).sum();
  double RequestSumBefore = Reg.histogram("serve.request_ms").sum();
  uint64_t CountBefore = Reg.histogram("serve.request_ms").count();
  uint64_t SerializeCountBefore =
      Reg.histogram("serve.stage_ms.serialize").count();

  // A mix of misses, cache hits, and error responses: the attribution
  // invariant holds for every outcome, not just the happy path.
  for (int I = 0; I < 8; ++I)
    ASSERT_TRUE(responseOk(
        C.roundTrip(format("{\"budget\": %d}", 5 + I % 3))));
  EXPECT_FALSE(responseOk(C.roundTrip("{\"budget\": -1}")));
  EXPECT_FALSE(responseOk(C.roundTrip("{broken")));

  // The shard records the histograms *after* writing the response (the
  // serialize stage covers the socket write), so wait for the last
  // stage record of the last request before reading the sums.
  for (int Spin = 0;
       Reg.histogram("serve.stage_ms.serialize").count() <
           SerializeCountBefore + 10 &&
       Spin < 1000;
       ++Spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  double StageSum = -StageSumBefore;
  for (const char *Name : StageNames)
    StageSum += Reg.histogram(Name).sum();
  double RequestSum = Reg.histogram("serve.request_ms").sum() -
                      RequestSumBefore;
  uint64_t Count = Reg.histogram("serve.request_ms").count() - CountBefore;
  EXPECT_EQ(Count, 10u);
  ASSERT_GT(RequestSum, 0.0);
  // The acceptance bar: the five stages account for the request clock
  // to within 5% (by construction they partition it exactly; the
  // tolerance absorbs histogram float accumulation).
  EXPECT_NEAR(StageSum, RequestSum, 0.05 * RequestSum);
}

//===----------------------------------------------------------------------===//
// Slow-request sampler determinism
//===----------------------------------------------------------------------===//

namespace {

std::vector<std::string> runSampler(size_t Window, size_t TopN, uint64_t Seed,
                                    size_t Shard, size_t Requests) {
  std::vector<std::string> Lines;
  SlowRequestSampler Sampler(Window, TopN, Seed, Shard,
                             [&Lines](const std::string &Line) {
                               Lines.push_back(Line);
                             });
  for (size_t I = 0; I < Requests; ++I) {
    StageSample S;
    S.Id = std::to_string(I);
    // A deterministic sawtooth with one large spike per window.
    S.TotalMs = (I % 7 == 3) ? 50.0 + static_cast<double>(I)
                             : 1.0 + static_cast<double>(I % 5);
    S.ParseMs = 0.25 * S.TotalMs;
    S.PlanMs = 0.25 * S.TotalMs;
    S.SerializeMs = 0.5 * S.TotalMs;
    Sampler.observe(S);
  }
  return Lines;
}

} // namespace

TEST(SlowRequestSamplerTest, ReplaysIdenticallyForTheSameSeedAndShard) {
  std::vector<std::string> A = runSampler(16, 3, 42, 0, 64);
  std::vector<std::string> B = runSampler(16, 3, 42, 0, 64);
  EXPECT_FALSE(A.empty());
  EXPECT_EQ(A, B) << "same (seed, shard, stream) must log the same lines";

  // Per window: TopN slow-request lines plus one spotlight sample.
  EXPECT_EQ(A.size(), (64 / 16) * (3 + 1));
  size_t Slow = 0, Spot = 0;
  for (const std::string &Line : A) {
    if (Line.find("slow-request") != std::string::npos)
      ++Slow;
    if (Line.find("sample-request") != std::string::npos)
      ++Spot;
    EXPECT_NE(Line.find("total_ms="), std::string::npos) << Line;
    EXPECT_NE(Line.find("parse_ms="), std::string::npos) << Line;
  }
  EXPECT_EQ(Slow, (64 / 16) * 3);
  EXPECT_EQ(Spot, 64 / 16);
}

TEST(SlowRequestSamplerTest, ShardsWithTheSameSeedDivergeAndRanksAreSorted) {
  std::vector<std::string> Shard0 = runSampler(16, 2, 7, 0, 32);
  std::vector<std::string> Shard1 = runSampler(16, 2, 7, 1, 32);
  // The slowest requests agree (same stream) but the spotlight picks
  // must not march in lockstep across shards.
  EXPECT_NE(Shard0, Shard1);

  // rank=1 is the slowest of its window: ranks never increase in speed.
  auto TotalOf = [](const std::string &Line) {
    size_t At = Line.find("total_ms=");
    return std::stod(Line.substr(At + 9));
  };
  double Rank1 = 0.0;
  for (const std::string &Line : Shard0) {
    if (Line.find("rank=1/") != std::string::npos)
      Rank1 = TotalOf(Line);
    else if (Line.find("rank=2/") != std::string::npos)
      EXPECT_LE(TotalOf(Line), Rank1) << Line;
  }
}

TEST(SlowRequestSamplerTest, DisabledSamplerNeverEmits) {
  EXPECT_TRUE(runSampler(0, 3, 42, 0, 64).empty());
  std::vector<std::string> NoTop = runSampler(8, 0, 42, 0, 64);
  EXPECT_TRUE(NoTop.empty());
}

TEST_F(ServingTest, HotSwapDoesNotServeCachedSchedulesFromTheOldArtifact) {
  // Two deliberately different trainings of the same application: the
  // swap must change what the server answers, and the pre-swap cache
  // must not leak the old model's schedules past the swap.
  auto App = createApp("pso");
  OpproxTrainOptions OptsA;
  OptsA.Profiling.RandomJointSamples = 6;
  OptsA.TrainingInputs = {{30, 5}, {45, 6}};
  OpproxArtifact ArtA = OfflineTrainer::train(*App, OptsA).Artifact;
  OpproxTrainOptions OptsB;
  OptsB.Profiling.RandomJointSamples = 14;
  OptsB.Profiling.Seed = 0x5EED5;
  OptsB.TrainingInputs = {{24, 4}, {60, 8}};
  OpproxArtifact ArtB = OfflineTrainer::train(*App, OptsB).Artifact;

  const std::vector<double> Budgets = {2.0, 10.0, 25.0};
  const std::vector<double> &Input = ArtA.DefaultInput;
  const OptimizeOptions ServerDefaults; // What the server runs per request.

  // The expected post-swap responses, computed locally from artifact B
  // (the serving suite already proves server responses are byte-equal
  // to local documents for one artifact; here that pins down *which*
  // artifact answered).
  OpproxRuntime RtA = OpproxRuntime::fromArtifact(ArtA);
  OpproxRuntime RtB = OpproxRuntime::fromArtifact(ArtB);
  std::vector<std::string> DocsA, DocsB;
  for (double Budget : Budgets) {
    DocsA.push_back(optimizationResultJson(
                        RtA.artifact(), Budget, Input,
                        RtA.optimizeDetailed(Input, Budget, ServerDefaults))
                        .dump());
    DocsB.push_back(optimizationResultJson(
                        RtB.artifact(), Budget, Input,
                        RtB.optimizeDetailed(Input, Budget, ServerDefaults))
                        .dump());
  }
  // The swap must be observable, or this test could not catch a stale
  // cache; the trainings above are different enough that at least one
  // budget decides differently (both sides are deterministic).
  ASSERT_NE(DocsA, DocsB)
      << "test artifacts must disagree on at least one budget";

  std::string Path = tempPath("serving-hot-swap-cache.opprox.json");
  ASSERT_FALSE(ArtA.save(Path).has_value());

  ServeOptions Opts;
  Opts.Shards = 1;
  std::unique_ptr<Server> Srv = startTestServer(Opts, {{"", Path}});
  ASSERT_NE(Srv, nullptr);
  TestClient C = TestClient::connectTo(Srv->port());

  // Warm the cache: every budget twice, so the second answer of each is
  // served from the cache keyed under artifact A.
  for (int Round = 0; Round < 2; ++Round)
    for (size_t I = 0; I < Budgets.size(); ++I) {
      Json Response =
          C.roundTrip(format("{\"budget\": %g}", Budgets[I]));
      ASSERT_TRUE(responseOk(Response));
      Expected<const Json *> Result = getObject(Response, "result");
      ASSERT_TRUE(static_cast<bool>(Result));
      EXPECT_EQ((*Result)->dump(), DocsA[I]);
    }

  ASSERT_FALSE(ArtB.save(Path).has_value());
  EXPECT_EQ(Srv->hotSwap(), 1u);

  // Every post-swap answer must come from artifact B's model -- byte for
  // byte -- even though the same (budget, input) keys were cached hot
  // moments ago under artifact A.
  for (size_t I = 0; I < Budgets.size(); ++I) {
    Json Response = C.roundTrip(format("{\"budget\": %g}", Budgets[I]));
    ASSERT_TRUE(responseOk(Response));
    Expected<const Json *> Result = getObject(Response, "result");
    ASSERT_TRUE(static_cast<bool>(Result));
    EXPECT_EQ((*Result)->dump(), DocsB[I])
        << "budget " << Budgets[I]
        << ": response does not match the swapped-in artifact";
  }
}
