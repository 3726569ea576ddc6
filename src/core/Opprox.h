//===- core/Opprox.h - The OPPROX facade -----------------------*- C++ -*-===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end OPPROX system (paper Fig. 6): offline training --
/// phase detection (Algorithm 1), profiling over representative inputs
/// (Sec. 3.3), control-flow classification (Sec. 3.4), and model
/// construction (Secs. 3.6-3.7) -- followed by per-budget optimization
/// (Algorithm 2) that emits a PhaseSchedule for a production input.
///
/// This facade is a thin convenience wrapper over the two halves of the
/// pipeline: OfflineTrainer (which produces a versioned OpproxArtifact)
/// and OpproxRuntime (which serves optimizations from one). Use the
/// halves directly to train and optimize in separate processes; use the
/// facade when both happen in one program, or trainCached() to
/// transparently reuse an artifact file across program runs.
///
/// Typical use:
/// \code
///   MiniLulesh App;
///   OpproxTrainOptions Opts;           // Defaults are sensible.
///   Opprox Tuner = Opprox::train(App, Opts);
///   PhaseSchedule S = Tuner.optimize(App.defaultInput(), /*budget=*/10.0);
///   EvalOutcome Truth =
///       evaluateSchedule(App, Tuner.golden(), App.defaultInput(), S);
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef OPPROX_CORE_OPPROX_H
#define OPPROX_CORE_OPPROX_H

#include "core/AppModel.h"
#include "core/Evaluator.h"
#include "core/Optimizer.h"
#include "core/OpproxRuntime.h"
#include "core/PhaseDetector.h"
#include "core/Profiler.h"
#include <memory>

namespace opprox {

struct OpproxTrainOptions {
  /// Phase count; 0 runs Algorithm 1 to detect it automatically.
  size_t NumPhases = 4;
  /// Algorithm 1 settings, used only when NumPhases == 0.
  PhaseDetectOptions PhaseDetection;
  /// Profiling-sweep settings: sampling density, base seed, measurement
  /// parallelism (ProfileOptions::NumThreads / OPPROX_THREADS), and the
  /// optional ProfileObserver progress hook.
  ProfileOptions Profiling;
  /// Model-construction settings: Sec.-3.7 selection policy, ROI floor,
  /// fold-shuffle seed, and fit parallelism. Seeds are derived per task
  /// (see deriveSeed), so training is deterministic for any thread
  /// count.
  ModelBuildOptions ModelBuild;
  /// Training inputs; empty uses the application's own representative
  /// set.
  std::vector<std::vector<double>> TrainingInputs;
};

/// A trained OPPROX instance for one application.
class Opprox {
public:
  /// Offline training (Fig. 6, left half). Runs the application many
  /// times; see ProfileOptions to control the cost.
  static Opprox train(const ApproxApp &App, const OpproxTrainOptions &Opts);

  /// Loads the artifact at \p Path when it exists and matches \p App;
  /// otherwise trains from scratch and saves the artifact there. A
  /// stale or corrupt cache file is retrained and overwritten, never an
  /// error; only an unwritable path fails. Instances served from the
  /// cache have an empty trainingData() (the samples are not part of
  /// the artifact) and a fresh golden cache.
  static Expected<Opprox> trainCached(const ApproxApp &App,
                                      const OpproxTrainOptions &Opts,
                                      const std::string &Path);

  /// Finds the most profitable phase schedule for \p Input under
  /// \p QosBudget percent degradation (Algorithm 2).
  PhaseSchedule optimize(const std::vector<double> &Input, double QosBudget,
                         const OptimizeOptions &Opts = {}) const;

  /// optimize() plus the per-phase decisions and ROI shares.
  OptimizationResult optimizeDetailed(const std::vector<double> &Input,
                                      double QosBudget,
                                      const OptimizeOptions &Opts = {}) const;

  /// optimize() followed by a ground-truth validation-and-backoff pass:
  /// the assembled schedule is executed once; while its measured QoS
  /// degradation exceeds the budget, approximation is withdrawn from the
  /// lowest-ROI approximated phase and the schedule re-measured. This
  /// guards against cross-phase interactions the per-phase models cannot
  /// see (the paper optimizes each phase independently and implicitly
  /// assumes per-phase errors compose additively; on cliff-shaped QoS
  /// surfaces such as PSO's premature convergence that assumption can
  /// fail badly). An engineering extension beyond the paper -- costs at
  /// most numPhases()+1 extra application runs.
  PhaseSchedule optimizeValidated(const std::vector<double> &Input,
                                  double QosBudget,
                                  const OptimizeOptions &Opts = {}) const;

  // -- Introspection ----------------------------------------------------

  size_t numPhases() const { return Runtime.numPhases(); }
  const AppModel &model() const { return Runtime.model(); }
  const TrainingSet &trainingData() const { return Data; }
  const ApproxApp &app() const { return *App; }
  GoldenCache &golden() const { return *Golden; }
  size_t trainingRuns() const {
    return Runtime.artifact().Provenance.TrainingRuns;
  }

  /// The versioned artifact this instance optimizes from; save() it to
  /// serve the model from an OpproxRuntime elsewhere.
  const OpproxArtifact &artifact() const { return Runtime.artifact(); }

  /// The embedded online half.
  const OpproxRuntime &runtime() const { return Runtime; }

private:
  Opprox() = default;

  const ApproxApp *App = nullptr;
  std::unique_ptr<GoldenCache> Golden;
  TrainingSet Data;
  OpproxRuntime Runtime;
};

} // namespace opprox

#endif // OPPROX_CORE_OPPROX_H
