//===- artbench/cpp/Streams.cpp -------------------------------------------===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "Streams.h"
#include "apps/AppRegistry.h"
#include "support/Json.h"

using namespace artbench;
using namespace opprox;

namespace {

enum StreamTag : uint64_t { WarmTag = 1, ColdTag = 2 };

/// An object's members without the opening brace, ready to follow the
/// id member.
std::string bodyOf(const Json &Request) { return Request.dump().substr(1); }

/// Per app: its training inputs followed by its default input.
const std::vector<std::vector<std::vector<double>>> &coldInputs() {
  static const std::vector<std::vector<std::vector<double>>> Inputs = [] {
    std::vector<std::vector<std::vector<double>>> All;
    for (const std::string &Name : allAppNames()) {
      std::unique_ptr<ApproxApp> App = createApp(Name);
      std::vector<std::vector<double>> Candidates = App->trainingInputs();
      Candidates.push_back(App->defaultInput());
      All.push_back(std::move(Candidates));
    }
    return All;
  }();
  return Inputs;
}

} // namespace

const std::vector<std::string> &artbench::warmKeyBodies() {
  static const std::vector<std::string> Bodies = [] {
    std::vector<std::string> B;
    for (const std::string &App : allAppNames())
      for (double Budget : {1.0, 2.0, 5.0, 10.0, 15.0, 20.0, 25.0, 50.0}) {
        Json Req = Json::object();
        Req.set("app", App);
        Req.set("budget", Budget);
        B.push_back(bodyOf(Req));
      }
    return B;
  }();
  return Bodies;
}

std::string artbench::requestLine(uint64_t Id, const std::string &Body) {
  std::string Line = "{\"id\":";
  Line += std::to_string(Id);
  Line += ',';
  Line += Body;
  Line += '\n';
  return Line;
}

WarmStream::WarmStream(uint64_t Seed, uint64_t Conn)
    : Gen(deriveSeed(Seed, WarmTag, Conn)) {}

size_t WarmStream::next() {
  return static_cast<size_t>(Gen.below(warmKeyBodies().size()));
}

ColdStream::ColdStream(uint64_t Seed, uint64_t Conn)
    : Gen(deriveSeed(Seed, ColdTag, Conn)) {}

ColdRequest ColdStream::next() {
  const auto &Inputs = coldInputs();
  ColdRequest R;
  R.App = static_cast<size_t>(Gen.below(Inputs.size()));
  const auto &Candidates = Inputs[R.App];
  const std::vector<double> &Input =
      Candidates[static_cast<size_t>(Gen.below(Candidates.size()))];
  double Budget = Gen.uniform(1.0, 30.0);

  Json Req = Json::object();
  Req.set("app", allAppNames()[R.App]);
  Req.set("budget", Budget);
  Req.set("input", Json::numberArray(Input));
  R.KeyText = Req.dump();
  if (Gen.chance(0.2)) {
    R.FeedbackLen = 1 + static_cast<size_t>(Gen.below(ServePhases - 1));
    std::vector<double> Feedback;
    for (size_t P = 0; P < R.FeedbackLen; ++P)
      Feedback.push_back(Budget / ServePhases * Gen.uniform(0.25, 2.0));
    Req.set("feedback", Json::numberArray(Feedback));
  }
  R.Body = bodyOf(Req);
  return R;
}
