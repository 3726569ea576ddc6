//===- core/OfflineTrainer.cpp --------------------------------------------===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/OfflineTrainer.h"
#include "support/Log.h"
#include "support/Telemetry.h"
#include "support/Version.h"

using namespace opprox;

OfflineTrainer::Result OfflineTrainer::train(const ApproxApp &App,
                                             const OpproxTrainOptions &Opts) {
  // The before/after diff of the monotone metrics becomes the artifact's
  // training_metrics provenance: what this training actually cost.
  MetricsSummary Before = MetricsRegistry::global().monotoneSummary();
  TraceSpan TrainSpan("train.total", "train");

  Result R;
  R.Golden = std::make_unique<GoldenCache>(App);

  Profiler Prof(App, *R.Golden);

  std::vector<std::vector<double>> Inputs = Opts.TrainingInputs.empty()
                                                ? App.trainingInputs()
                                                : Opts.TrainingInputs;
  assert(!Inputs.empty() && "no training inputs");

  // Phase count: fixed or detected via Algorithm 1 on the first
  // representative input.
  size_t NumPhases = Opts.NumPhases;
  if (NumPhases == 0) {
    TraceSpan Span("train.phase_detect", "train");
    NumPhases = detectPhaseCount(Prof, Inputs.front(), Opts.PhaseDetection);
    logDebug("phase detection settled on %zu phases", NumPhases);
  }

  ProfileOptions ProfileOpts = Opts.Profiling;
  ProfileOpts.NumPhases = NumPhases;
  {
    TraceSpan Span("train.profile", "train");
    R.Data = Prof.collect(Inputs, ProfileOpts);
  }
  logDebug("profiling produced %zu samples from %zu runs", R.Data.size(),
           Prof.runsPerformed());

  R.Artifact.AppName = App.name();
  R.Artifact.ParameterNames = App.parameterNames();
  R.Artifact.MaxLevels = App.maxLevels();
  R.Artifact.DefaultInput = App.defaultInput();
  {
    TraceSpan Span("train.model_build", "train");
    R.Artifact.Model = ModelBuilder::build(R.Data, NumPhases, App.numBlocks(),
                                           Opts.ModelBuild);
  }

  R.Artifact.Provenance.LibraryVersion = opproxVersion();
  R.Artifact.Provenance.ProfileSeed = Opts.Profiling.Seed;
  R.Artifact.Provenance.ModelSeed = Opts.ModelBuild.Seed;
  R.Artifact.Provenance.TrainingRuns = Prof.runsPerformed();
  R.Artifact.Provenance.RandomJointSamples = Opts.Profiling.RandomJointSamples;
  R.Artifact.Provenance.PhaseCountDetected = Opts.NumPhases == 0;

  MetricsRegistry::global()
      .histogram("train.total_ms")
      .record(TrainSpan.seconds() * 1e3);
  R.Artifact.Provenance.TrainingMetrics = MetricsRegistry::diffSummary(
      Before, MetricsRegistry::global().monotoneSummary());
  return R;
}
