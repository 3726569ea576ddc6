//===- tests/CheapTraining.h - Fast training options for tests -*- C++ -*-===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#ifndef OPPROX_TESTS_CHEAPTRAINING_H
#define OPPROX_TESTS_CHEAPTRAINING_H

#include "core/OfflineTrainer.h"
#include <string>

namespace opprox {

/// Cheap but complete training options: two light inputs per app (for
/// FFmpeg, one per filter order so both control-flow classes train) and a
/// thin joint sweep, so every app trains in well under a second while
/// still exercising multi-phase, multi-class models.
inline OpproxTrainOptions cheapOptions(const std::string &AppName) {
  OpproxTrainOptions Opts;
  Opts.Profiling.RandomJointSamples = 6;
  if (AppName == "pso")
    Opts.TrainingInputs = {{30, 5}, {45, 6}};
  else if (AppName == "lulesh")
    Opts.TrainingInputs = {{20, 8}, {20, 16}};
  else if (AppName == "comd")
    Opts.TrainingInputs = {{3, 1.52, 60}, {3, 1.60, 80}};
  else if (AppName == "ffmpeg")
    Opts.TrainingInputs = {{15, 4, 4, 0}, {15, 4, 4, 1}};
  else if (AppName == "bodytrack")
    Opts.TrainingInputs = {{3, 96, 10}, {4, 96, 14}};
  return Opts;
}

} // namespace opprox

#endif // OPPROX_TESTS_CHEAPTRAINING_H
