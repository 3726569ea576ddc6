//===- artbench/cpp/TrainWorkload.cpp - train-all -------------------------===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The offline-training workload: OfflineTrainer::train for all five
/// apps with the opprox-train defaults at 4 threads and the fixed
/// training seeds, in an app order drawn from --seed. The apps, approx,
/// Profiler, ml and linalg layers do all the work; serve and the
/// planner do none.
///
/// The profiler's executors are the closed loop here: each launches one
/// application run and waits for it. So a run's "request" is one
/// ApproxApp::run call, timed through a forwarding wrapper, and
/// throughput is runs per second of training wall clock.
///
/// A traced run trains once more through the layers' own public calls
/// (Profiler::collect, then ModelBuilder::build) to time each of them;
/// its models must match the same digests, which also shows the
/// decomposition does exactly what OfflineTrainer::train does.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "apps/AppRegistry.h"
#include "core/OfflineTrainer.h"
#include "support/Random.h"

#include <mutex>

using namespace artbench;
using namespace opprox;

namespace {

constexpr size_t SetupRepeats = 15;

/// Forwards every call to the wrapped app and times each run.
class TimedApp : public ApproxApp {
public:
  TimedApp(const ApproxApp &Inner, Tracer *T) : Inner(Inner), T(T) {}

  std::string name() const override { return Inner.name(); }
  const std::vector<ApproximableBlock> &blocks() const override {
    return Inner.blocks();
  }
  std::vector<std::string> parameterNames() const override {
    return Inner.parameterNames();
  }
  std::vector<std::vector<double>> trainingInputs() const override {
    return Inner.trainingInputs();
  }
  std::vector<double> defaultInput() const override {
    return Inner.defaultInput();
  }
  RunResult run(const std::vector<double> &Input,
                const PhaseSchedule &Schedule,
                size_t NominalIterations) const override {
    Clock::time_point T0 = Clock::now();
    RunResult R = Inner.run(Input, Schedule, NominalIterations);
    Clock::time_point T1 = Clock::now();
    if (T)
      T->span("apps.ApproxApp.run", T0, T1);
    std::lock_guard<std::mutex> Lock(Mutex);
    RunUs.push_back(microsBetween(T0, T1));
    return R;
  }
  double qosDegradation(const RunResult &Exact,
                        const RunResult &Approx) const override {
    return Inner.qosDegradation(Exact, Approx);
  }
  bool usesPsnr() const override { return Inner.usesPsnr(); }
  double psnrValue(const RunResult &Exact,
                   const RunResult &Approx) const override {
    return Inner.psnrValue(Exact, Approx);
  }

  /// Durations of every run so far, in microseconds.
  const std::vector<double> &runUs() const { return RunUs; }

private:
  const ApproxApp &Inner;
  Tracer *T;
  mutable std::mutex Mutex;
  mutable std::vector<double> RunUs;
};

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

} // namespace

bool artbench::runTrainWorkload(const RunConfig &Cfg, Tracer &T, Report &R) {
  Expected<std::string> ExpectedText = readFile(Cfg.ExpectedModelsPath);
  if (!ExpectedText) {
    std::fprintf(stderr, "artbench: %s\n",
                 ExpectedText.error().message().c_str());
    return false;
  }
  Expected<Json> ExpectedDoc = Json::parse(*ExpectedText);
  if (!ExpectedDoc || !ExpectedDoc->isObject()) {
    std::fprintf(stderr, "artbench: %s is not a JSON object\n",
                 Cfg.ExpectedModelsPath.c_str());
    return false;
  }

  std::vector<std::string> Order = allAppNames();
  Rng(deriveSeed(Cfg.Seed, 3)).shuffle(Order);

  // Setup: build the apps and run each exactly once on its default
  // input, so code and data are warm before training is timed. Timed
  // SetupRepeats times, about half of them before the passes and the
  // rest after: the host's speed changes over seconds, and setups taken
  // at two points of the run are less likely all to land in one spell.
  std::vector<double> SetupS;
  std::vector<std::unique_ptr<ApproxApp>> Apps;
  auto SetUp = [&](size_t Repeats) {
    for (size_t Rep = 0; Rep < Repeats; ++Rep) {
      Clock::time_point T0 = Clock::now();
      Apps.clear();
      for (const std::string &Name : Order) {
        Apps.push_back(createApp(Name));
        (void)Apps.back()->runExact(Apps.back()->defaultInput());
      }
      SetupS.push_back(secondsSince(T0));
    }
  };
  SetUp(SetupRepeats / 2 + 1);

  size_t Attempted = 0;
  size_t Failed = 0;
  auto Check = [&](const std::string &Name, const AppModel &Model) {
    ++Attempted;
    std::string Digest = modelDigest(Model);
    Expected<std::string> Want = getString(*ExpectedDoc, Name);
    if (!Want || *Want != Digest) {
      ++Failed;
      std::fprintf(stderr, "artbench: %s model digest %s, expected %s\n",
                   Name.c_str(), Digest.c_str(),
                   Want ? Want->c_str() : "(none)");
    }
  };

  // Timed passes over all apps: at least one, and another only while it
  // is expected (from the last pass) to end within --seconds.
  std::vector<double> PassS;
  std::vector<double> RunUs;
  Clock::time_point Start = Clock::now();
  do {
    double Pass = 0.0;
    for (const auto &App : Apps) {
      TimedApp Timed(*App, nullptr);
      Clock::time_point T0 = Clock::now();
      OfflineTrainer::Result Trained =
          OfflineTrainer::train(Timed, trainOptions());
      Pass += secondsSince(T0);
      Check(App->name(), Trained.Artifact.Model);
      RunUs.insert(RunUs.end(), Timed.runUs().begin(), Timed.runUs().end());
    }
    PassS.push_back(Pass);
  } while (secondsSince(Start) + PassS.back() <= Cfg.Seconds);
  SetUp(SetupRepeats - SetupS.size());
  R.median("setup_s", SetupS);
  double TrainTotal = 0.0;
  for (double S : PassS)
    TrainTotal += S;
  R.value("peak_rss_mb", peakRssMb());
  R.median("train_s", PassS);
  R.value("throughput_rps", static_cast<double>(RunUs.size()) / TrainTotal);
  R.median("latency_p50_us", RunUs);
  if (!R.p99("latency_p99_us", RunUs))
    std::fprintf(stderr, "artbench: %zu run samples cannot support p99\n",
                 RunUs.size());

  if (Cfg.Trace) {
    Counter &Folds = MetricsRegistry::global().counter("ml.cv.folds");
    uint64_t FoldsBefore = Folds.value();
    size_t GoldenHits = 0;
    size_t GoldenLookups = 0;
    double BusyUs = 0.0;
    double CollectTotalUs = 0.0;
    double TracedS = 0.0;
    for (const auto &App : Apps) {
      const std::string Name = App->name();
      TimedApp Timed(*App, &T);
      OpproxTrainOptions Opts = trainOptions();
      GoldenCache Golden(Timed);
      Profiler Prof(Timed, Golden);
      ProfileOptions ProfileOpts = Opts.Profiling;
      ProfileOpts.NumPhases = Opts.NumPhases;
      std::vector<double> CollectUs, FitUs;
      TrainingSet Data = [&] {
        CallTimer C(T, "core.Profiler.collect", CollectUs);
        return Prof.collect(Timed.trainingInputs(), ProfileOpts);
      }();
      AppModel Model = [&] {
        CallTimer C(T, "core.ModelBuilder.build", FitUs);
        return ModelBuilder::build(Data, Opts.NumPhases, Timed.numBlocks(),
                                   Opts.ModelBuild);
      }();
      Check(Name, Model);
      TracedS += (CollectUs.front() + FitUs.front()) / 1e6;

      R.median("core.profiler.collect_s." + Name, {CollectUs.front() / 1e6});
      R.median("core.trainer.fit_s." + Name, {FitUs.front() / 1e6});
      R.value("core.profiler.runs." + Name,
              static_cast<double>(Prof.runsPerformed()));
      std::vector<double> RunMs;
      for (double Us : Timed.runUs()) {
        RunMs.push_back(Us / 1e3);
        BusyUs += Us;
      }
      R.median("apps.run_ms." + Name, RunMs);
      CollectTotalUs += CollectUs.front();
      GoldenHits += Golden.hits();
      GoldenLookups += Golden.hits() + Golden.misses();
    }
    R.value("core.profiler.golden_hit_ratio",
            GoldenLookups ? static_cast<double>(GoldenHits) /
                                static_cast<double>(GoldenLookups)
                          : 0.0);
    R.value("ml.cv.folds", static_cast<double>(Folds.value() - FoldsBefore));
    R.value("core.profiler.executor_busy_frac",
            BusyUs / (CollectTotalUs * static_cast<double>(TrainThreads)));
    R.value("bench.trace_overhead_frac", TracedS / PassS.front() - 1.0);
  }
  R.count(Attempted, Failed);
  return true;
}
