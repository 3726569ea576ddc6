//===- tools/opprox-optimize.cpp - Online optimization CLI ----------------===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The online half of the pipeline as a command-line tool: loads a model
// artifact produced by opprox-train and emits the phase schedule for a
// QoS budget -- no profiling, no application runs, just the model stack
// and Algorithm 2. Typically invoked many times per artifact.
//
//   opprox-optimize --artifact lulesh.opprox.json --budget 10
//   opprox-optimize --artifact lulesh.opprox.json --input 30,5 --json
//
//===----------------------------------------------------------------------===//

#include "control/OnlineController.h"
#include "core/OpproxRuntime.h"
#include "serve/WireProtocol.h"
#include "support/CommandLine.h"
#include "support/Json.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"
#include <cstdio>

using namespace opprox;

int main(int Argc, char **Argv) {
  std::string ArtifactPath;
  std::string InputText;
  double Budget = 10.0;
  double Confidence = 0.99;
  bool Aggressive = false;
  bool JsonOutput = false;
  long LoadRetries = 3;
  double RetryBackoffMs = 10.0;
  bool NoLastGood = false;
  long CacheShards = -1;
  long CacheCapacity = -1;
  bool NoCache = false;
  bool OnlineControl = false;
  std::string FeedbackText;
  TelemetryOptions Telemetry;

  FlagParser Flags;
  Flags.addFlag("artifact", &ArtifactPath,
                "Model artifact produced by opprox-train");
  Flags.addFlag("budget", &Budget, "QoS degradation budget in percent");
  Flags.addFlag("input", &InputText,
                "Comma-separated input values (default: the artifact's "
                "recorded production input)");
  Flags.addFlag("confidence", &Confidence,
                "Confidence level of conservative predictions");
  Flags.addFlag("aggressive", &Aggressive,
                "Use point predictions instead of conservative bounds");
  Flags.addFlag("json", &JsonOutput, "Emit the result as JSON on stdout");
  Flags.addFlag("load-retries", &LoadRetries,
                "Total artifact load attempts before giving up");
  Flags.addFlag("retry-backoff-ms", &RetryBackoffMs,
                "Initial sleep between load attempts (doubles each retry)");
  Flags.addFlag("no-last-good", &NoLastGood,
                "Do not fall back to the last successfully loaded artifact");
  Flags.addFlag("cache-shards", &CacheShards,
                "Schedule-cache lock shards (default 8, or "
                "OPPROX_CACHE_SHARDS)");
  Flags.addFlag("cache-capacity", &CacheCapacity,
                "Schedule-cache entries; 0 caches nothing (default 4096, "
                "or OPPROX_CACHE_CAPACITY)");
  Flags.addFlag("no-cache", &NoCache,
                "Disable the schedule cache (every request is solved; the "
                "cache only memoizes)");
  Flags.addFlag("online-control", &OnlineControl,
                "Run the schedule through the online controller (required "
                "by --feedback)");
  Flags.addFlag("feedback", &FeedbackText,
                "Comma-separated observed per-phase QoS degradations, in "
                "phase order; replayed through the online controller to "
                "correct the remaining phases");
  addTelemetryFlags(Flags, Telemetry);
  if (!Flags.parse(Argc, Argv))
    return 1;
  if (!initTelemetry(Telemetry))
    return 1;

  if (ArtifactPath.empty() && !Flags.positional().empty())
    ArtifactPath = Flags.positional().front();
  if (ArtifactPath.empty()) {
    std::fprintf(stderr, "error: --artifact is required\n");
    Flags.printUsage(Argv[0]);
    return 1;
  }

  if (LoadRetries < 1) {
    std::fprintf(stderr, "error: --load-retries must be at least 1\n");
    return 1;
  }
  ArtifactLoadOptions LoadOpts;
  LoadOpts.Retry.MaxAttempts = static_cast<size_t>(LoadRetries);
  LoadOpts.Retry.InitialBackoffMs = RetryBackoffMs;
  LoadOpts.UseLastGood = !NoLastGood;
  Expected<OpproxRuntime> Runtime =
      OpproxRuntime::loadArtifact(ArtifactPath, LoadOpts);
  if (!Runtime) {
    std::fprintf(stderr, "error: %s\n", Runtime.error().message().c_str());
    return 1;
  }
  PlannerOptions Planner = plannerOptionsFromEnv();
  if (CacheShards >= 0)
    Planner.Cache.Shards = static_cast<size_t>(CacheShards);
  if (CacheCapacity >= 0)
    Planner.Cache.Capacity = static_cast<size_t>(CacheCapacity);
  if (NoCache)
    Planner.UseCache = false;
  Runtime->configurePlanner(Planner);
  const OpproxArtifact &Art = Runtime->artifact();

  std::vector<double> Input = Art.DefaultInput;
  if (!InputText.empty()) {
    Input.clear();
    for (const std::string &Field : split(InputText, ',')) {
      double Value = 0.0;
      if (!parseDouble(trim(Field), Value)) {
        std::fprintf(stderr, "error: bad input value '%s'\n", Field.c_str());
        return 1;
      }
      Input.push_back(Value);
    }
  }
  if (Input.size() != Art.ParameterNames.size()) {
    std::fprintf(stderr,
                 "error: application '%s' expects %zu input values (%s), "
                 "got %zu\n",
                 Art.AppName.c_str(), Art.ParameterNames.size(),
                 join(Art.ParameterNames, ", ").c_str(), Input.size());
    return 1;
  }

  OptimizeOptions Opts;
  Opts.ConfidenceP = Confidence;
  Opts.Conservative = !Aggressive;

  if (!FeedbackText.empty() && !OnlineControl) {
    std::fprintf(stderr, "error: --feedback requires --online-control\n");
    return 1;
  }
  if (OnlineControl) {
    std::vector<double> Feedback;
    for (const std::string &Field : split(FeedbackText, ',')) {
      if (trim(Field).empty())
        continue;
      double Value = 0.0;
      if (!parseDouble(trim(Field), Value)) {
        std::fprintf(stderr, "error: bad feedback value '%s'\n",
                     Field.c_str());
        return 1;
      }
      Feedback.push_back(Value);
    }
    if (Feedback.size() > Art.numPhases()) {
      std::fprintf(stderr,
                   "error: --feedback has %zu entries but the artifact has "
                   "%zu phases\n",
                   Feedback.size(), Art.numPhases());
      return 1;
    }
    control::ControllerOptions CtrlOpts;
    CtrlOpts.Optimize = Opts;
    Expected<control::OnlineController> Ctrl =
        control::OnlineController::start(*Runtime, Input, Budget, CtrlOpts);
    if (!Ctrl) {
      std::fprintf(stderr, "error: %s\n", Ctrl.error().message().c_str());
      return 1;
    }
    for (size_t P = 0; P < Feedback.size(); ++P) {
      control::PhaseObservation Obs;
      Obs.Phase = P;
      Obs.ObservedQos = Feedback[P];
      Ctrl->onPhaseComplete(Obs);
    }
    const control::ControllerStats &Stats = Ctrl->stats();
    if (JsonOutput) {
      Json Out = serve::optimizationResultJson(Art, Budget, Input,
                                               Ctrl->plan());
      Json Control = Json::object();
      Control.set("next_phase", Ctrl->nextPhase());
      Control.set("spent_qos", Ctrl->spentQos());
      Control.set("remaining_budget", Ctrl->remainingBudget());
      Control.set("distrust_ratio", Ctrl->distrustRatio());
      Control.set("distrusts", Stats.Distrusts);
      Control.set("resolves", Stats.Resolves);
      Control.set("corrections", Stats.Corrections);
      Control.set("rejected_resolves", Stats.RejectedResolves);
      Out.set("control", std::move(Control));
      std::printf("%s\n", Out.dump(2).c_str());
      return 0;
    }
    std::printf("%s (online control, %zu/%zu phases observed)\n",
                Art.AppName.c_str(), Ctrl->nextPhase(), Art.numPhases());
    std::printf("budget: %.3g%% degradation (spent %.3g%%, remaining "
                "%.3g%%)\n",
                Budget, Ctrl->spentQos(), Ctrl->remainingBudget());
    std::printf("schedule: %s\n", Ctrl->schedule().toString().c_str());
    std::printf("control: %zu distrusts, %zu re-solves, %zu corrections, "
                "%zu rejected, distrust ratio %.3g\n",
                Stats.Distrusts, Stats.Resolves, Stats.Corrections,
                Stats.RejectedResolves, Ctrl->distrustRatio());
    return 0;
  }

  Expected<OptimizationResult> Optimized =
      Runtime->tryOptimizeDetailed(Input, Budget, Opts);
  if (!Optimized) {
    std::fprintf(stderr, "error: %s\n", Optimized.error().message().c_str());
    return 1;
  }
  OptimizationResult &Result = *Optimized;
  size_t DegradedPhases = Result.DegradedPhases.size();

  if (JsonOutput) {
    // The same document opprox-serve returns in its "result" member;
    // sharing the builder is what keeps the two byte-identical.
    Json Out = serve::optimizationResultJson(Art, Budget, Input, Result);
    std::printf("%s\n", Out.dump(2).c_str());
    return 0;
  }

  std::printf("%s (trained by %s, %zu training runs)\n", Art.AppName.c_str(),
              Art.Provenance.LibraryVersion.c_str(),
              Art.Provenance.TrainingRuns);
  std::printf("input: ");
  for (size_t I = 0; I < Input.size(); ++I)
    std::printf("%s%s=%g", I ? ", " : "", Art.ParameterNames[I].c_str(),
                Input[I]);
  std::printf("\nbudget: %.3g%% degradation\n", Budget);
  std::printf("schedule: %s\n", Result.Schedule.toString().c_str());
  for (size_t P = 0; P < Result.Decisions.size(); ++P) {
    const PhaseDecision &D = Result.Decisions[P];
    std::printf("  phase %zu: allocated budget %.3g%%, predicted speedup "
                "%.3fx, predicted qos %.3g%%\n",
                P, D.AllocatedBudget, D.PredictedSpeedup, D.PredictedQos);
  }
  std::printf("configurations evaluated: %zu\n", Result.ConfigsEvaluated);
  if (DegradedPhases > 0)
    std::printf("degraded phases: %zu (served exact configurations; see "
                "stderr log for causes)\n",
                DegradedPhases);
  return 0;
}
