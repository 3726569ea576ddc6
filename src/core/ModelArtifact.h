//===- core/ModelArtifact.h - Versioned trained-model artifact -*- C++ -*-===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The on-disk boundary between offline training and online
/// optimization (paper Fig. 6): everything the per-budget optimizer
/// needs -- the full per-(class, phase) model stack, the application's
/// identity and level ranges -- plus the training provenance required to
/// reproduce or audit it, in one schema-versioned JSON document.
///
/// Compatibility contract: a reader accepts any artifact whose schema
/// *major* version matches its own (minor bumps add optional fields);
/// anything else is rejected with a descriptive Error, never a crash.
/// Serialization is deterministic and doubles round-trip bit-exactly,
/// so a loaded artifact optimizes bit-identically to the trainer that
/// saved it.
///
//===----------------------------------------------------------------------===//

#ifndef OPPROX_CORE_MODELARTIFACT_H
#define OPPROX_CORE_MODELARTIFACT_H

#include "core/AppModel.h"
#include "support/Error.h"
#include "support/Retry.h"
#include "support/Telemetry.h"
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace opprox {

class ApproxApp;
class Json;

/// How an artifact's model was trained: enough to re-run the exact same
/// training (seeds, sampling density) and to trace the producing
/// library build. Informational -- the runtime never branches on it.
struct ArtifactProvenance {
  /// Library build that trained the model (see opproxVersion()).
  std::string LibraryVersion;
  /// Base seed of the profiling sweep (ProfileOptions::Seed).
  uint64_t ProfileSeed = 0;
  /// Base seed of model fitting (ModelBuildOptions::Seed).
  uint64_t ModelSeed = 0;
  /// Application runs the profiling sweep performed.
  size_t TrainingRuns = 0;
  /// Joint-sampling density of the sweep (ProfileOptions).
  size_t RandomJointSamples = 0;
  /// True when the phase count came from Algorithm 1 rather than being
  /// fixed by the caller.
  bool PhaseCountDetected = false;
  /// What this training cost: the name-sorted diff of the monotone
  /// telemetry metrics (counters, histogram counts/sums) across
  /// OfflineTrainer::train -- golden-cache traffic, run counts, stage
  /// times. Optional in the schema (added in 1.1); empty when absent.
  MetricsSummary TrainingMetrics;
};

/// A complete, self-describing trained model for one application.
struct OpproxArtifact {
  /// Readers reject a different major; minor bumps stay readable.
  /// 1.1 added the optional provenance "training_metrics" object;
  /// 1.2's "budget_grids" section is ignored on read and no longer
  /// written.
  static constexpr long SchemaMajor = 1;
  static constexpr long SchemaMinor = 2;

  /// Application identity, used to refuse cross-application loads.
  std::string AppName;
  /// Input-parameter names, in the order optimize() expects values.
  std::vector<std::string> ParameterNames;
  /// Per-block maximum approximation levels (the optimizer's search
  /// ranges).
  std::vector<int> MaxLevels;
  /// The application's representative production input, so a runtime
  /// host can optimize without linking the application at all.
  std::vector<double> DefaultInput;
  /// The trained per-(class, phase) model stack.
  AppModel Model;
  ArtifactProvenance Provenance;

  size_t numPhases() const { return Model.numPhases(); }
  size_t numBlocks() const { return MaxLevels.size(); }

  Json toJson() const;
  static Expected<OpproxArtifact> fromJson(const Json &Value);

  /// The canonical serialized form (pretty-printed, trailing newline).
  std::string serialize() const;
  static Expected<OpproxArtifact> deserialize(const std::string &Text);

  /// Whole-file convenience wrappers around serialize()/deserialize().
  std::optional<Error> save(const std::string &Path) const;
  static Expected<OpproxArtifact> load(const std::string &Path);

  /// save() with bounded retry: transient write failures are retried
  /// per \p Policy, each retry counted into train.artifact_save_retries
  /// and logged. Returns the last attempt's Error when all attempts
  /// fail.
  std::optional<Error> save(const std::string &Path,
                            const RetryPolicy &Policy) const;

  /// Checks this artifact drives \p App: same name, block count, and
  /// level ranges. nullopt when compatible.
  std::optional<Error> validateFor(const ApproxApp &App) const;
};

} // namespace opprox

#endif // OPPROX_CORE_MODELARTIFACT_H
