//===- core/Optimizer.h - Budget allocation + phase search -----*- C++ -*-===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Algorithm 2 of the paper: sort phases by ROI, hand each a share of
/// the remaining QoS degradation budget proportional to its normalized
/// ROI, exhaustively search that phase's discrete level space for the
/// predicted-speedup-maximizing configuration whose conservative QoS
/// stays within the sub-budget, and let unused budget flow to later
/// phases. The scan scores every configuration of the space; there is
/// no bound-based pruning (docs/ARCHITECTURE.md records why).
///
//===----------------------------------------------------------------------===//

#ifndef OPPROX_CORE_OPTIMIZER_H
#define OPPROX_CORE_OPTIMIZER_H

#include "core/AppModel.h"
#include "approx/PhaseSchedule.h"
#include "support/Json.h"

namespace opprox {

class ThreadPool;
struct OpproxArtifact;

struct OptimizeOptions {
  /// Confidence level for the conservative bounds (paper: p = 0.99).
  double ConfidenceP = 0.99;
  /// Use conservative bounds (upper QoS / lower speedup). Turning this
  /// off is the ablation of Sec. "confidence analysis".
  bool Conservative = true;
  /// Run the retained scalar reference scan instead of the batched one.
  /// Exists for equivalence testing and benchmarking; both paths return
  /// bit-identical decisions.
  bool UseNaiveScan = false;
  /// Configurations predicted per model-batch call. Must be positive;
  /// 0 is a caller bug and fails loudly (reportFatalError) in every
  /// build type.
  size_t BatchSize = 256;
  /// Enumeration-index span each scan task claims. 0 (the default)
  /// auto-sizes chunks from the space size and the resolved executor
  /// count -- enough chunks that every executor gets several, rounded
  /// to whole batches -- so large spaces actually engage the whole
  /// pool. A positive value pins the geometry explicitly. Either way
  /// the decision (and the search stats) are chunking-invariant: the
  /// reduction replays the serial scan's first-best-wins order.
  size_t ChunkSize = 0;
  /// Worker threads for the per-phase scan when \c Pool is null:
  /// 1 = serial, 0 = auto (OPPROX_THREADS, else hardware concurrency).
  size_t NumThreads = 1;
  /// Externally owned pool to run the scan on (serving processes keep
  /// one warm pool instead of spawning threads per request).
  ThreadPool *Pool = nullptr;
};

/// What the optimizer decided for one phase.
struct PhaseDecision {
  std::vector<int> Levels;
  double PredictedSpeedup = 1.0;
  double PredictedQos = 0.0;
  double AllocatedBudget = 0.0;
};

/// Search-effort accounting for one or more phase scans.
struct PhaseSearchStats {
  /// Configurations covered by the search: the full space.
  size_t ConfigsEvaluated = 0;
  /// Configurations routed through the prediction models: every one
  /// but the all-exact baseline of each phase.
  size_t ConfigsScored = 0;
};

/// Full optimization outcome.
struct OptimizationResult {
  PhaseSchedule Schedule{1, 1};
  std::vector<PhaseDecision> Decisions; // Indexed by phase.
  /// Initial normalized ROI share per phase (the paper reports these,
  /// e.g. 0.166/0.17/0.265/0.399 for LULESH).
  std::vector<double> NormalizedRoi;
  /// Phases that fell back to the exact configuration (rung 3 of the
  /// degradation ladder, docs/RELIABILITY.md), in ascending phase
  /// order. Carried per result -- not just in the process-wide
  /// runtime.degraded_phases counter -- so concurrent hosts (the
  /// opprox-serve shards) can report degradation per response without
  /// racing on counter deltas.
  std::vector<size_t> DegradedPhases;
  size_t ConfigsEvaluated = 0;
  /// Always 0: the optimizer no longer prunes. Kept only because the
  /// artifact benchmark reads it; remove with the next benchmark change.
  size_t ConfigsPruned = 0;
  size_t ConfigsScored = 0;
};

/// The canonical result document for one optimization -- the single
/// source of truth shared by `opprox-optimize --json`, the server's
/// success responses, and the response bytes the planner memoizes with
/// each cached full-schedule solve. Every writer of that document calls
/// this one builder, which is what makes them byte-identical for the
/// same artifact and request.
Json optimizationResultJson(const OpproxArtifact &Artifact, double Budget,
                            const std::vector<double> &Input,
                            const OptimizationResult &Result);

/// Searches one phase: maximize predicted speedup subject to the
/// conservative QoS staying within \p Budget. Returns the all-exact
/// decision when nothing fits. The decision is identical -- bit for bit,
/// including ties, which resolve to the earliest configuration in
/// enumeration order -- for every combination of Opts.UseNaiveScan,
/// BatchSize, ChunkSize, and worker count.
PhaseDecision optimizePhase(const PhaseModels &Models,
                            const std::vector<double> &Input,
                            const std::vector<int> &MaxLevels, double Budget,
                            const OptimizeOptions &Opts,
                            PhaseSearchStats &Stats);

/// Back-compat wrapper tracking only the evaluated-config count.
PhaseDecision optimizePhase(const PhaseModels &Models,
                            const std::vector<double> &Input,
                            const std::vector<int> &MaxLevels, double Budget,
                            const OptimizeOptions &Opts,
                            size_t &ConfigsEvaluated);

/// Algorithm 2 over all phases.
OptimizationResult optimizeSchedule(const AppModel &Model,
                                    const std::vector<double> &Input,
                                    const std::vector<int> &MaxLevels,
                                    double QosBudget,
                                    const OptimizeOptions &Opts);

/// Algorithm 2 restricted to phases [FirstPhase, numPhases): the online
/// controller's re-solve primitive. Phases before \p FirstPhase -- the
/// ones a run has already executed -- come back exact (level 0,
/// default-constructed decisions, zero ROI share); ROI normalization,
/// the visiting order, and budget flow-down all operate over the tail
/// only. With FirstPhase == 0 this is bit-identical to
/// optimizeSchedule (same operations in the same order), and
/// FirstPhase >= numPhases is a caller bug reported fatally.
OptimizationResult optimizeScheduleTail(const AppModel &Model,
                                        const std::vector<double> &Input,
                                        const std::vector<int> &MaxLevels,
                                        double QosBudget, size_t FirstPhase,
                                        const OptimizeOptions &Opts);

} // namespace opprox

#endif // OPPROX_CORE_OPTIMIZER_H
