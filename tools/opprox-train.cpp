//===- tools/opprox-train.cpp - Offline training CLI ----------------------===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The offline half of the pipeline as a command-line tool: trains the
// named miniapp and writes a versioned model artifact that
// opprox-optimize (or any OpproxRuntime host) serves schedules from.
//
//   opprox-train --app lulesh --out lulesh.opprox.json
//   opprox-train --app pso --phases 0 --samples 48 --threads 8
//
//===----------------------------------------------------------------------===//

#include "apps/AppRegistry.h"
#include "core/OfflineTrainer.h"
#include "support/CommandLine.h"
#include "support/Log.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"
#include "support/Version.h"
#include <cstdio>

using namespace opprox;

int main(int Argc, char **Argv) {
  std::string AppName;
  std::string OutPath;
  long NumPhases = 4;
  long JointSamples = 32;
  long Threads = 0;
  long ProfileSeed = -1;
  long SaveRetries = 3;
  bool Quiet = false;
  TelemetryOptions Telemetry;

  FlagParser Flags;
  Flags.addFlag("app", &AppName,
                "Application to train (" + join(allAppNames(), ", ") + ")");
  Flags.addFlag("out", &OutPath,
                "Artifact output path (default <app>.opprox.json)");
  Flags.addFlag("phases", &NumPhases,
                "Phase count; 0 detects it via Algorithm 1");
  Flags.addFlag("samples", &JointSamples,
                "Random joint samples per training input");
  Flags.addFlag("threads", &Threads,
                "Worker threads; 0 = auto (OPPROX_THREADS, else hardware)");
  Flags.addFlag("seed", &ProfileSeed,
                "Profiling seed override; -1 keeps the default");
  Flags.addFlag("save-retries", &SaveRetries,
                "Total artifact save attempts before giving up (a failed "
                "save forfeits the whole training run)");
  Flags.addFlag("quiet", &Quiet, "Suppress progress output");
  addTelemetryFlags(Flags, Telemetry);
  if (!Flags.parse(Argc, Argv))
    return 1;
  if (Quiet && Telemetry.LogLevelText.empty())
    Telemetry.LogLevelText = "quiet";
  if (!initTelemetry(Telemetry))
    return 1;

  if (AppName.empty() && !Flags.positional().empty())
    AppName = Flags.positional().front();
  if (AppName.empty()) {
    std::fprintf(stderr, "error: --app is required\n");
    Flags.printUsage(Argv[0]);
    return 1;
  }
  std::unique_ptr<ApproxApp> App = createApp(AppName);
  if (!App) {
    std::fprintf(stderr, "error: unknown application '%s' (known: %s)\n",
                 AppName.c_str(), join(allAppNames(), ", ").c_str());
    return 1;
  }
  if (OutPath.empty())
    OutPath = AppName + ".opprox.json";

  OpproxTrainOptions Opts;
  Opts.NumPhases = static_cast<size_t>(NumPhases < 0 ? 0 : NumPhases);
  Opts.Profiling.RandomJointSamples = static_cast<size_t>(
      JointSamples < 1 ? 1 : JointSamples);
  Opts.Profiling.NumThreads = static_cast<size_t>(Threads < 0 ? 0 : Threads);
  Opts.ModelBuild.NumThreads = Opts.Profiling.NumThreads;
  if (ProfileSeed >= 0)
    Opts.Profiling.Seed = static_cast<uint64_t>(ProfileSeed);
  if (currentLogLevel() >= LogLevel::Info) {
    Opts.Profiling.Observer = [](const ProfileProgress &P) {
      if (P.RunsCompleted % 50 != 0 && P.RunsCompleted != P.TotalRuns)
        return;
      logInfo("  profiling %zu/%zu runs, %zu golden hits (%.1fs)",
              P.RunsCompleted, P.TotalRuns, P.GoldenCacheHits,
              P.ElapsedSeconds);
    };
  }

  logInfo("training '%s' with %s...", AppName.c_str(),
          opproxVersion().c_str());
  OfflineTrainer::Result R = OfflineTrainer::train(*App, Opts);
  RetryPolicy SavePolicy;
  SavePolicy.MaxAttempts = static_cast<size_t>(SaveRetries < 1 ? 1 : SaveRetries);
  SavePolicy.InitialBackoffMs = 10.0;
  if (std::optional<Error> E = R.Artifact.save(OutPath, SavePolicy)) {
    std::fprintf(stderr, "error: %s\n", E->message().c_str());
    return 1;
  }

  const OpproxArtifact &A = R.Artifact;
  std::printf("trained %s: %zu phases, %zu classes, %zu blocks, "
              "%zu training runs\n",
              A.AppName.c_str(), A.numPhases(), A.Model.numClasses(),
              A.numBlocks(), A.Provenance.TrainingRuns);
  std::printf("artifact written to %s (schema %ld.%ld, %zu bytes)\n",
              OutPath.c_str(), OpproxArtifact::SchemaMajor,
              OpproxArtifact::SchemaMinor, A.serialize().size());
  return 0;
}
