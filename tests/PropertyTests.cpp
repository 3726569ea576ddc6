//===- tests/PropertyTests.cpp - parameterized property sweeps ------------===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
// Property-style invariants swept over sizes/levels/shapes with TEST_P,
// complementing the example-based tests elsewhere.
//
//===----------------------------------------------------------------------===//

#include "approx/PhaseSchedule.h"
#include "approx/Techniques.h"
#include "apps/AppRegistry.h"
#include "control/ControlSim.h"
#include "core/ModelArtifact.h"
#include "core/OfflineTrainer.h"
#include "core/OpproxRuntime.h"
#include "core/Sampler.h"
#include "linalg/Decompositions.h"
#include "ml/Mic.h"
#include "ml/PolynomialRegression.h"
#include "support/Json.h"
#include "support/Random.h"
#include "support/Statistics.h"
#include <cmath>
#include <cstdio>
#include <cstring>
#include <gtest/gtest.h>
#include <limits>
#include <numeric>

using namespace opprox;

//===----------------------------------------------------------------------===//
// PhaseMap properties over many (iterations, phases) shapes
//===----------------------------------------------------------------------===//

class PhaseMapProperty
    : public testing::TestWithParam<std::pair<size_t, size_t>> {};

TEST_P(PhaseMapProperty, PhasesAreMonotoneAndExhaustive) {
  auto [Iters, Phases] = GetParam();
  PhaseMap PM(Iters, Phases);
  size_t Prev = 0;
  for (size_t I = 0; I < Iters; ++I) {
    size_t P = PM.phaseOf(I);
    EXPECT_GE(P, Prev) << "phase index must never decrease";
    EXPECT_LT(P, Phases);
    Prev = P;
  }
  // phaseOf agrees with phaseRange.
  for (size_t P = 0; P < Phases; ++P) {
    auto [Begin, End] = PM.phaseRange(P);
    for (size_t I = Begin; I < End && I < Iters; ++I) {
      EXPECT_EQ(PM.phaseOf(I), P);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PhaseMapProperty,
    testing::Values(std::pair<size_t, size_t>{1, 1},
                    std::pair<size_t, size_t>{7, 2},
                    std::pair<size_t, size_t>{8, 8},
                    std::pair<size_t, size_t>{100, 3},
                    std::pair<size_t, size_t>{923, 4},
                    std::pair<size_t, size_t>{5, 8},
                    std::pair<size_t, size_t>{1000, 7}));

//===----------------------------------------------------------------------===//
// Technique coverage properties over levels
//===----------------------------------------------------------------------===//

class LevelProperty : public testing::TestWithParam<int> {};

TEST_P(LevelProperty, PerforationExecutesCeilDiv) {
  int Level = GetParam();
  for (size_t N : {1u, 2u, 10u, 97u}) {
    size_t Count = 0;
    perforatedLoop(N, Level, [&](size_t) { ++Count; });
    size_t Stride = static_cast<size_t>(Level) + 1;
    EXPECT_EQ(Count, (N + Stride - 1) / Stride);
  }
}

TEST_P(LevelProperty, RotatingPerforationSameCountEveryIteration) {
  int Level = GetParam();
  size_t Stride = static_cast<size_t>(Level) + 1;
  for (size_t Outer = 0; Outer < 3 * Stride; ++Outer) {
    size_t Count = 0;
    rotatingPerforatedLoop(60, Level, Outer, [&](size_t) { ++Count; });
    // 60 is divisible by 1..6, so every offset executes 60/stride.
    EXPECT_EQ(Count, 60u / Stride);
  }
}

TEST_P(LevelProperty, TruncationNeverDropsMoreThanHalf) {
  int Level = GetParam();
  for (size_t N : {4u, 10u, 1000u}) {
    size_t Drop = truncationDrop(N, Level, 5);
    EXPECT_LE(Drop, N / 2);
    if (Level == 0) {
      EXPECT_EQ(Drop, 0u);
    }
  }
}

TEST_P(LevelProperty, MemoizationComputeFractionMatchesPeriod) {
  int Level = GetParam();
  size_t Computes = 0, Reuses = 0;
  memoizedLoop<int>(
      120, Level, [&](size_t) { return static_cast<int>(++Computes); },
      [&](size_t, int) { ++Reuses; });
  EXPECT_EQ(Computes + Reuses, 120u);
  size_t Period = static_cast<size_t>(Level) + 1;
  EXPECT_EQ(Computes, (120 + Period - 1) / Period);
}

TEST_P(LevelProperty, TunedParameterMonotoneInLevel) {
  int Level = GetParam();
  if (Level == 0)
    return;
  EXPECT_LE(tunedParameter(100, Level), tunedParameter(100, Level - 1));
}

INSTANTIATE_TEST_SUITE_P(Levels, LevelProperty, testing::Range(0, 6));

//===----------------------------------------------------------------------===//
// Schedule properties
//===----------------------------------------------------------------------===//

class ScheduleProperty : public testing::TestWithParam<size_t> {};

TEST_P(ScheduleProperty, UniformOfExactLevelsIsExact) {
  size_t Phases = GetParam();
  std::vector<int> Zero(3, 0);
  EXPECT_TRUE(PhaseSchedule::uniform(Phases, Zero).isExact());
}

TEST_P(ScheduleProperty, SinglePhaseTouchesOnlyThatPhase) {
  size_t Phases = GetParam();
  for (size_t Target = 0; Target < Phases; ++Target) {
    PhaseSchedule S = PhaseSchedule::singlePhase(Phases, Target, {1, 2, 3});
    for (size_t P = 0; P < Phases; ++P)
      for (size_t B = 0; B < 3; ++B)
        EXPECT_EQ(S.level(P, B), P == Target ? static_cast<int>(B) + 1 : 0);
  }
}

INSTANTIATE_TEST_SUITE_P(PhaseCounts, ScheduleProperty,
                         testing::Values(1u, 2u, 4u, 8u));

//===----------------------------------------------------------------------===//
// Sampler properties over block shapes
//===----------------------------------------------------------------------===//

class SamplerProperty
    : public testing::TestWithParam<std::vector<int>> {};

TEST_P(SamplerProperty, LocalCountIsSumOfLevels) {
  Rng R(99);
  const std::vector<int> &Max = GetParam();
  SamplingPlan Plan = makeSamplingPlan(Max, 7, R);
  EXPECT_EQ(Plan.LocalConfigs.size(),
            static_cast<size_t>(std::accumulate(Max.begin(), Max.end(), 0)));
  EXPECT_EQ(Plan.JointConfigs.size(), 7u);
}

TEST_P(SamplerProperty, EnumerationMatchesProduct) {
  const std::vector<int> &Max = GetParam();
  size_t Want = 1;
  for (int M : Max)
    Want *= static_cast<size_t>(M) + 1;
  EXPECT_EQ(enumerateAllConfigs(Max).size(), Want);
}

INSTANTIATE_TEST_SUITE_P(
    BlockShapes, SamplerProperty,
    testing::Values(std::vector<int>{1}, std::vector<int>{5, 5},
                    std::vector<int>{5, 5, 5}, std::vector<int>{2, 3, 4},
                    std::vector<int>{5, 5, 5, 5}));

//===----------------------------------------------------------------------===//
// QR round-trip property under scaling
//===----------------------------------------------------------------------===//

class QrScaleProperty : public testing::TestWithParam<double> {};

TEST_P(QrScaleProperty, SolutionInvariantUnderRhsScaling) {
  double Scale = GetParam();
  Rng R(7);
  Matrix A(12, 4);
  for (size_t I = 0; I < 12; ++I)
    for (size_t J = 0; J < 4; ++J)
      A.at(I, J) = R.gaussian();
  std::vector<double> X0 = {1, -1, 2, 0.5};
  std::vector<double> B = A.multiply(X0);
  for (double &V : B)
    V *= Scale;
  auto X = QrDecomposition(A).solve(B);
  ASSERT_TRUE(X.has_value());
  for (size_t J = 0; J < 4; ++J)
    EXPECT_NEAR((*X)[J], X0[J] * Scale, 1e-8 * std::max(1.0, Scale));
}

INSTANTIATE_TEST_SUITE_P(Scales, QrScaleProperty,
                         testing::Values(1e-6, 1.0, 1e6));

//===----------------------------------------------------------------------===//
// MIC invariance properties
//===----------------------------------------------------------------------===//

TEST(MicProperty, InvariantUnderMonotoneTransforms) {
  // MIC of (x, y) equals MIC of (f(x), y) for strictly monotone f,
  // because equal-frequency bins only see order.
  Rng R(21);
  std::vector<double> X, Y, X3;
  for (int I = 0; I < 300; ++I) {
    double V = R.uniform(0.1, 3.0);
    X.push_back(V);
    X3.push_back(V * V * V);
    Y.push_back(std::sin(2.0 * V));
  }
  EXPECT_NEAR(mic(X, Y), mic(X3, Y), 1e-12);
}

TEST(MicProperty, SymmetricInArguments) {
  Rng R(22);
  std::vector<double> X, Y;
  for (int I = 0; I < 200; ++I) {
    double V = R.uniform(-1, 1);
    X.push_back(V);
    Y.push_back(V * V + R.gaussian(0, 0.05));
  }
  EXPECT_NEAR(mic(X, Y), mic(Y, X), 0.15); // Grid budget differs per axis.
}

//===----------------------------------------------------------------------===//
// Regression scaling property
//===----------------------------------------------------------------------===//

//===----------------------------------------------------------------------===//
// Artifact round-trip property over adversarial double bit patterns
//===----------------------------------------------------------------------===//

namespace {

/// One cheaply trained artifact shared by every round-trip seed; each
/// seed perturbs a copy, so training cost is paid once.
const OpproxArtifact &roundTripBaseArtifact() {
  static const OpproxArtifact Art = [] {
    auto App = createApp("pso");
    OpproxTrainOptions Opts;
    Opts.Profiling.RandomJointSamples = 6;
    Opts.TrainingInputs = {{30, 5}, {45, 6}};
    return std::move(OfflineTrainer::train(*App, Opts).Artifact);
  }();
  return Art;
}

/// A finite double drawn uniformly from the raw bit-pattern space --
/// subnormals, extreme exponents, negative zero -- far nastier for
/// shortest-round-trip formatting than uniform() values.
double finiteFromBits(Rng &R) {
  for (;;) {
    uint64_t Bits = R.next();
    double V;
    std::memcpy(&V, &Bits, sizeof(V));
    if (std::isfinite(V))
      return V;
  }
}

} // namespace

TEST(ArtifactRoundTripProperty, SerializationIsBitExactAcross200Seeds) {
  // The artifact contract (ModelArtifact.h) promises doubles survive
  // serialize -> deserialize bit-exactly; serializing the reloaded
  // artifact must therefore reproduce the original bytes. Sweep 200
  // seeded variants of the input/provenance fields to probe the
  // formatter across the double space, not just training-shaped values.
  for (uint64_t Seed = 0; Seed < 200; ++Seed) {
    Rng R(deriveSeed(0xA57EFAC7u, Seed));
    OpproxArtifact Art = roundTripBaseArtifact();
    for (double &V : Art.DefaultInput)
      V = finiteFromBits(R);
    Art.Provenance.ProfileSeed = R.next();
    Art.Provenance.ModelSeed = R.next();
    Art.Provenance.TrainingRuns = static_cast<size_t>(R.below(1u << 20));

    std::string First = Art.serialize();
    Expected<OpproxArtifact> Reloaded = OpproxArtifact::deserialize(First);
    ASSERT_TRUE(static_cast<bool>(Reloaded))
        << "seed " << Seed << ": " << Reloaded.error().message();
    std::string Second = Reloaded->serialize();
    ASSERT_EQ(First, Second) << "round-trip changed bytes at seed " << Seed;
    // And the reloaded doubles themselves are bitwise identical.
    ASSERT_EQ(Art.DefaultInput.size(), Reloaded->DefaultInput.size());
    for (size_t I = 0; I < Art.DefaultInput.size(); ++I)
      EXPECT_EQ(std::memcmp(&Art.DefaultInput[I], &Reloaded->DefaultInput[I],
                            sizeof(double)),
                0)
          << "seed " << Seed << " input " << I;
  }
}

namespace {

/// The number format the JSON writer promises, spelled with printf: an
/// integral value below 1e15 (other than -0) as %lld, anything else as
/// %.17g. Test-only oracle for the writer's to_chars implementation.
std::string printfNumber(double D) {
  char Buf[64];
  if (std::fabs(D) < 1e15 && D == std::trunc(D) &&
      !(D == 0.0 && std::signbit(D)))
    std::snprintf(Buf, sizeof(Buf), "%lld", static_cast<long long>(D));
  else
    std::snprintf(Buf, sizeof(Buf), "%.17g", D);
  return Buf;
}

} // namespace

TEST(NumberWriterProperty, MatchesPrintfAndRoundTripsAcrossSeededDoubles) {
  std::vector<double> Values = {0.0,
                                -0.0,
                                0.5,
                                -0.5,
                                0.1,
                                1.0 / 3.0,
                                M_PI,
                                1e-7,
                                1e-308,
                                1e308,
                                1e15,
                                1e15 - 1,
                                -1e15,
                                -(1e15 - 1),
                                1e15 + 2,
                                999999999999999.5,
                                9007199254740992.0,
                                9223372036854775808.0,
                                -9223372036854775808.0,
                                1e16,
                                1e17,
                                1e21,
                                1e22,
                                123456789012345678.0,
                                std::numeric_limits<double>::denorm_min(),
                                -std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::min(),
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::lowest(),
                                std::numeric_limits<double>::epsilon()};
  Rng R(0x2C4A125u);
  for (size_t I = 0; I < 200000; ++I)
    Values.push_back(finiteFromBits(R));
  for (size_t I = 0; I < 20000; ++I) {
    double U = R.uniform(-1e6, 1e6);
    Values.push_back(U);
    Values.push_back(std::round(U * 100.0) / 100.0);
    Values.push_back(static_cast<double>(R.range(-1000000000000000ll,
                                                 1000000000000000ll)));
    Values.push_back(R.uniform() * 1e-300);
  }

  size_t Mismatches = 0;
  for (double D : Values) {
    std::string Dumped = Json(D).dump();
    if (Dumped != printfNumber(D) && ++Mismatches <= 10)
      ADD_FAILURE() << "writer printed '" << Dumped << "' where printf "
                    << "prints '" << printfNumber(D) << "'";
    // And the parser reads every written number back bit-exactly.
    Expected<Json> Back = Json::parse(Dumped);
    ASSERT_TRUE(static_cast<bool>(Back)) << Dumped;
    double Read = Back->asNumber();
    if (std::memcmp(&Read, &D, sizeof(D)) != 0 && ++Mismatches <= 10)
      ADD_FAILURE() << "'" << Dumped << "' did not read back bit-exactly";
  }
  EXPECT_EQ(Mismatches, 0u) << "over " << Values.size() << " doubles";
}

TEST(ScheduleRoundTripProperty, JsonIsLosslessAcross200Seeds) {
  for (uint64_t Seed = 0; Seed < 200; ++Seed) {
    Rng R(deriveSeed(0x5C4ED11Eu, Seed));
    PhaseSchedule S(1 + R.below(8), 1 + R.below(6));
    for (size_t P = 0; P < S.numPhases(); ++P)
      for (size_t B = 0; B < S.numBlocks(); ++B)
        S.setLevel(P, B, static_cast<int>(R.below(10)));

    std::string First = S.toJson().dump(2);
    Expected<Json> Parsed = Json::parse(First);
    ASSERT_TRUE(static_cast<bool>(Parsed)) << "seed " << Seed;
    Expected<PhaseSchedule> Reloaded = PhaseSchedule::fromJson(*Parsed);
    ASSERT_TRUE(static_cast<bool>(Reloaded))
        << "seed " << Seed << ": " << Reloaded.error().message();
    ASSERT_EQ(First, Reloaded->toJson().dump(2)) << "seed " << Seed;
    ASSERT_EQ(S.toString(), Reloaded->toString()) << "seed " << Seed;
  }
}

TEST(RegressionProperty, PredictionScalesWithTarget) {
  Rng R(31);
  Dataset D({"x"}), D10({"x"});
  for (int I = 0; I < 60; ++I) {
    double X = R.uniform(-2, 2);
    double T = 1 + X + X * X;
    D.addSample({X}, T);
    D10.addSample({X}, 10 * T);
  }
  PolynomialRegression::Options O;
  O.Degree = 2;
  PolynomialRegression M = PolynomialRegression::fit(D, O);
  PolynomialRegression M10 = PolynomialRegression::fit(D10, O);
  for (double X : {-1.5, 0.0, 0.7})
    EXPECT_NEAR(10 * M.predict({X}), M10.predict({X}), 1e-6);
}

//===----------------------------------------------------------------------===//
// Online control: the zero-drift no-op guarantee across apps and seeds
//===----------------------------------------------------------------------===//

class ZeroDriftNoOpProperty : public testing::TestWithParam<const char *> {};

TEST_P(ZeroDriftNoOpProperty, ControllerMatchesOfflineBitForBitAcross50Seeds) {
  // The control loop's anchor invariant (docs/CONTROL.md): when a run's
  // observations match the model exactly -- zero drift -- the online
  // controller never distrusts, never re-solves, and finishes with a
  // schedule bit-identical to the offline pipeline's, for every app and
  // any budget. A controller that reacts to clean feedback would make
  // opting into --online-control a behavior change even for healthy
  // runs.
  auto App = createApp(GetParam());
  OpproxTrainOptions Opts;
  Opts.Profiling.RandomJointSamples = 4;
  OpproxRuntime Rt =
      OpproxRuntime::fromArtifact(OfflineTrainer::train(*App, Opts).Artifact);
  const std::vector<double> Input = Rt.artifact().DefaultInput;
  for (uint64_t Seed = 0; Seed < 50; ++Seed) {
    Rng R(deriveSeed(0xC047801u, Seed));
    double Budget = R.uniform(0.5, 20.0);
    control::DriftSpec NoDrift; // Kind::None.
    Expected<control::SimOutcome> O =
        control::runScriptedSim(Rt, Input, Budget, NoDrift);
    ASSERT_TRUE(static_cast<bool>(O))
        << "seed " << Seed << ": " << O.error().message();
    ASSERT_EQ(O->FinalSchedule.toString(), O->OfflineSchedule.toString())
        << GetParam() << " seed " << Seed << " budget " << Budget;
    ASSERT_EQ(O->Stats.Distrusts, 0u) << "seed " << Seed;
    ASSERT_EQ(O->Stats.Resolves, 0u) << "seed " << Seed;
    ASSERT_EQ(O->Stats.Corrections, 0u) << "seed " << Seed;
    ASSERT_EQ(std::memcmp(&O->ControlledQos, &O->OfflineQos, sizeof(double)),
              0)
        << "seed " << Seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Apps, ZeroDriftNoOpProperty,
                         testing::Values("lulesh", "comd", "ffmpeg",
                                         "bodytrack", "pso"));
