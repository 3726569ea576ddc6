//===- artbench/cpp/Main.cpp - Benchmark entry point ----------------------===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// artbench run --workload <warm-repeat|cold-mix|train-all> --seed N
///              --seconds S --trace 0|1 --artifact-dir D --out-dir O
///              --expected artbench/expected_models.json
/// artbench prepare --artifact-dir D
/// artbench selftest
///
/// run.py builds this binary and calls it; README.md documents the
/// workloads and metrics.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "Streams.h"
#include "support/CommandLine.h"
#include "support/Log.h"

#include <cmath>
#include <set>

using namespace artbench;
using namespace opprox;

namespace {

int fail(const char *What) {
  std::fprintf(stderr, "selftest: FAILED: %s\n", What);
  return 1;
}

/// The benchmark's own checks: the statistics, and the shape of every
/// workload's request stream.
int selfTest() {
  std::vector<double> Ramp;
  for (int I = 1; I <= 1000; ++I)
    Ramp.push_back(I);
  Summary S = summarize(Ramp);
  if (S.Median != 500.5 || S.Q1 != 250.75 || S.Q3 != 750.25 || !S.HasP99)
    return fail("summary quantiles of 1..1000");
  if (summarize({1, 2, 3}).HasP99)
    return fail("p99 reported without ten samples beyond it");
  // {1..5}: s = sqrt(2.5), t(4, 95%) = 2.776.
  double Half = confidInterval(15, 55, 5, ConfidLevel::P95);
  if (std::fabs(Half - 2.776 * std::sqrt(2.5 / 5)) > 1e-9)
    return fail("confidence interval of 1..5");

  const std::vector<std::string> &Warm = warmKeyBodies();
  if (Warm.size() != 40 ||
      std::set<std::string>(Warm.begin(), Warm.end()).size() != 40)
    return fail("warm-repeat has 40 distinct keys");

  constexpr size_t N = 2000;
  for (uint64_t Seed : {1ULL, 2ULL, 12345ULL})
    for (uint64_t Conn : {0ULL, 1ULL}) {
      WarmStream W1(Seed, Conn), W2(Seed, Conn), WOther(Seed + 1, Conn);
      ColdStream C1(Seed, Conn), C2(Seed, Conn), COther(Seed + 1, Conn);
      bool WarmDiffers = false;
      bool ColdDiffers = false;
      for (size_t I = 0; I < N; ++I) {
        size_t K = W1.next();
        if (K != W2.next())
          return fail("warm stream is a pure function of (seed, conn)");
        WarmDiffers = WarmDiffers || K != WOther.next();
        std::string Body = C1.next().Body;
        if (Body != C2.next().Body)
          return fail("cold stream is a pure function of (seed, conn)");
        ColdDiffers = ColdDiffers || Body != COther.next().Body;
      }
      if (!WarmDiffers || !ColdDiffers)
        return fail("streams change with the seed");
    }

  std::set<std::string> Keys;
  size_t Feedback = 0;
  constexpr size_t PerConn = 50000;
  for (uint64_t Conn : {0ULL, 1ULL}) {
    ColdStream Gen(7, Conn);
    for (size_t I = 0; I < PerConn; ++I) {
      ColdRequest R = Gen.next();
      Keys.insert(R.KeyText);
      Feedback += R.FeedbackLen > 0;
    }
  }
  if (Keys.size() != 2 * PerConn)
    return fail("cold-mix keys are distinct");
  double FeedbackShare = static_cast<double>(Feedback) / (2.0 * PerConn);
  if (std::fabs(FeedbackShare - 0.2) > 0.01)
    return fail("one cold-mix request in five carries feedback");

  std::set<std::string> Names;
  for (const MetricDecl &M : metricTable())
    if (!Names.insert(M.Name).second)
      return fail("metric names are unique");
  std::printf("selftest: ok\n");
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  setLogLevel(LogLevel::Quiet);
  std::string Mode = Argc > 1 ? Argv[1] : "";
  RunConfig Cfg;
  long Seed = 0;
  long Trace = 0;
  FlagParser Flags;
  Flags.addFlag("workload", &Cfg.Workload,
                "warm-repeat, cold-mix, or train-all");
  Flags.addFlag("seed", &Seed, "Workload seed");
  Flags.addFlag("seconds", &Cfg.Seconds, "Length of a timed window");
  Flags.addFlag("trace", &Trace, "1 = traced run with per-layer metrics");
  Flags.addFlag("artifact-dir", &Cfg.ArtifactDir,
                "Directory of the served artifacts");
  Flags.addFlag("out-dir", &Cfg.OutDir, "Directory for reports and traces");
  Flags.addFlag("expected", &Cfg.ExpectedModelsPath,
                "JSON file of expected model digests (train-all)");
  if (!Flags.parse(Argc - 1, Argv + 1))
    return 1;
  Cfg.Seed = static_cast<uint64_t>(Seed);
  Cfg.Trace = Trace != 0;

  if (Mode == "selftest")
    return selfTest();
  if (Mode == "prepare")
    return !Cfg.ArtifactDir.empty() && prepareArtifacts(Cfg.ArtifactDir) ? 0
                                                                         : 1;
  if (Mode != "run") {
    std::fprintf(stderr, "usage: artbench run|prepare|selftest [flags]\n");
    Flags.printUsage(Argv[0]);
    return 1;
  }
  bool Serve = Cfg.Workload == "warm-repeat" || Cfg.Workload == "cold-mix";
  if (!Serve && Cfg.Workload != "train-all") {
    std::fprintf(stderr, "artbench: unknown workload '%s'\n",
                 Cfg.Workload.c_str());
    return 1;
  }
  if (!(Cfg.Seconds > 0) || Cfg.OutDir.empty()) {
    std::fprintf(stderr, "artbench: --seconds > 0 and --out-dir required\n");
    return 1;
  }

  Tracer T(Cfg.Trace);
  Report R(Cfg);
  bool Ok = Serve ? runServeWorkload(Cfg, T, R) : runTrainWorkload(Cfg, T, R);
  if (!Ok)
    return 1;
  std::string TracePath;
  if (Cfg.Trace) {
    TracePath = Cfg.OutDir + "/" + Cfg.Workload + "-seed" +
                std::to_string(Cfg.Seed) + ".trace.json";
    if (std::optional<Error> E = T.write(TracePath)) {
      std::fprintf(stderr, "artbench: %s\n", E->message().c_str());
      return 1;
    }
  }
  return R.finish(TracePath);
}
