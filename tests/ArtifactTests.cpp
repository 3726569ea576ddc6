//===- tests/ArtifactTests.cpp - model-artifact layer tests ---------------===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
// The contract under test (see core/ModelArtifact.h): serialization is
// deterministic, models round-trip bit-exactly so a loaded runtime
// optimizes identically to the trainer that saved it, and every way an
// artifact file can be bad -- missing, truncated, corrupted, wrong
// schema version, wrong application -- surfaces a descriptive Error
// rather than a crash.
//
//===----------------------------------------------------------------------===//

#include "CheapTraining.h"
#include "apps/AppRegistry.h"
#include "core/OfflineTrainer.h"
#include "core/Opprox.h"
#include "core/OpproxRuntime.h"
#include "support/Json.h"
#include "support/StringUtils.h"
#include <bit>
#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>

using namespace opprox;

namespace {

OpproxArtifact trainArtifact(const std::string &AppName) {
  auto App = createApp(AppName);
  OfflineTrainer::Result R =
      OfflineTrainer::train(*App, cheapOptions(AppName));
  return std::move(R.Artifact);
}

std::string tempPath(const std::string &Name) {
  return ::testing::TempDir() + "/" + Name;
}

} // namespace

TEST(ArtifactTest, RoundTripIsDeterministicForEveryApp) {
  for (const std::string &Name : allAppNames()) {
    OpproxArtifact Art = trainArtifact(Name);
    std::string First = Art.serialize();
    Expected<OpproxArtifact> Back = OpproxArtifact::deserialize(First);
    ASSERT_TRUE(Back) << Name << ": " << Back.error().message();
    // Byte-exact fixed point: reserializing the loaded artifact yields
    // the identical document.
    EXPECT_EQ(Back->serialize(), First) << Name;
    EXPECT_EQ(Back->AppName, Name);
    EXPECT_EQ(Back->numPhases(), Art.numPhases());
    EXPECT_EQ(Back->MaxLevels, Art.MaxLevels);
    EXPECT_EQ(Back->Provenance.TrainingRuns, Art.Provenance.TrainingRuns);
  }
}

TEST(ArtifactTest, LoadedRuntimeOptimizesBitIdentically) {
  for (const std::string &Name : allAppNames()) {
    auto App = createApp(Name);
    OfflineTrainer::Result R = OfflineTrainer::train(*App, cheapOptions(Name));
    OpproxRuntime Trained = OpproxRuntime::fromArtifact(R.Artifact);

    std::string Path = tempPath(Name + "-roundtrip.opprox.json");
    ASSERT_FALSE(R.Artifact.save(Path));
    Expected<OpproxRuntime> Loaded = OpproxRuntime::load(Path);
    ASSERT_TRUE(Loaded) << Name << ": " << Loaded.error().message();

    const std::vector<double> Input = App->defaultInput();
    for (double Budget : {5.0, 20.0}) {
      OptimizationResult A = Trained.optimizeDetailed(Input, Budget);
      OptimizationResult B = Loaded->optimizeDetailed(Input, Budget);
      EXPECT_EQ(A.Schedule.toString(), B.Schedule.toString())
          << Name << " at budget " << Budget;
      EXPECT_EQ(A.ConfigsEvaluated, B.ConfigsEvaluated);
      ASSERT_EQ(A.Decisions.size(), B.Decisions.size());
      for (size_t P = 0; P < A.Decisions.size(); ++P) {
        // Bit-exact model round-trip implies bit-exact predictions.
        EXPECT_EQ(A.Decisions[P].PredictedSpeedup,
                  B.Decisions[P].PredictedSpeedup);
        EXPECT_EQ(A.Decisions[P].PredictedQos, B.Decisions[P].PredictedQos);
        EXPECT_EQ(A.Decisions[P].AllocatedBudget,
                  B.Decisions[P].AllocatedBudget);
      }
    }
    std::remove(Path.c_str());
  }
}

TEST(ArtifactTest, MissingFileIsADescriptiveError) {
  Expected<OpproxArtifact> Art =
      OpproxArtifact::load(tempPath("no-such-artifact.opprox.json"));
  ASSERT_FALSE(Art);
  EXPECT_NE(Art.error().message().find("cannot open"), std::string::npos)
      << Art.error().message();
}

TEST(ArtifactTest, TruncatedFileIsADescriptiveError) {
  OpproxArtifact Art = trainArtifact("pso");
  std::string Text = Art.serialize();
  std::string Path = tempPath("truncated.opprox.json");
  {
    std::ofstream Out(Path);
    Out << Text.substr(0, Text.size() / 2);
  }
  Expected<OpproxArtifact> Back = OpproxArtifact::load(Path);
  ASSERT_FALSE(Back);
  EXPECT_NE(Back.error().message().find("JSON parse error"),
            std::string::npos)
      << Back.error().message();
  std::remove(Path.c_str());
}

TEST(ArtifactTest, CorruptedJsonIsADescriptiveError) {
  // Well-formed JSON that is not an artifact at all.
  Expected<OpproxArtifact> NoTag =
      OpproxArtifact::deserialize("{\"hello\": \"world\"}\n");
  ASSERT_FALSE(NoTag);
  EXPECT_NE(NoTag.error().message().find("format"), std::string::npos)
      << NoTag.error().message();
  Expected<OpproxArtifact> WrongTag =
      OpproxArtifact::deserialize("{\"format\": \"something-else\"}\n");
  ASSERT_FALSE(WrongTag);
  EXPECT_NE(WrongTag.error().message().find("not an OPPROX artifact"),
            std::string::npos)
      << WrongTag.error().message();

  // A real artifact with one structural field damaged.
  OpproxArtifact Art = trainArtifact("pso");
  Expected<Json> Doc = Json::parse(Art.serialize());
  ASSERT_TRUE(Doc);
  Json App = *Doc->find("app");
  App.set("max_levels", Json::numberArray<int>({5})); // Wrong block count.
  Doc->set("app", App);
  Expected<OpproxArtifact> Damaged = OpproxArtifact::fromJson(*Doc);
  ASSERT_FALSE(Damaged);
}

TEST(ArtifactTest, WrongSchemaMajorVersionIsRejected) {
  OpproxArtifact Art = trainArtifact("pso");
  Expected<Json> Doc = Json::parse(Art.serialize());
  ASSERT_TRUE(Doc);
  Json Version = Json::object();
  Version.set("major", OpproxArtifact::SchemaMajor + 1);
  Version.set("minor", 0);
  Doc->set("schema_version", Version);
  Expected<OpproxArtifact> Back = OpproxArtifact::fromJson(*Doc);
  ASSERT_FALSE(Back);
  EXPECT_NE(Back.error().message().find("is not supported"),
            std::string::npos)
      << Back.error().message();
}

TEST(ArtifactTest, MinorVersionBumpStaysReadable) {
  OpproxArtifact Art = trainArtifact("pso");
  Expected<Json> Doc = Json::parse(Art.serialize());
  ASSERT_TRUE(Doc);
  Json Version = Json::object();
  Version.set("major", OpproxArtifact::SchemaMajor);
  Version.set("minor", OpproxArtifact::SchemaMinor + 7);
  Doc->set("schema_version", Version);
  EXPECT_TRUE(OpproxArtifact::fromJson(*Doc));
}

TEST(ArtifactTest, CrossApplicationLoadIsRejected) {
  OpproxArtifact Art = trainArtifact("pso");
  auto Other = createApp("lulesh");
  std::optional<Error> Err = Art.validateFor(*Other);
  ASSERT_TRUE(Err.has_value());
  EXPECT_NE(Err->message().find("trained for application"),
            std::string::npos)
      << Err->message();
  // And the matching app passes.
  auto Same = createApp("pso");
  EXPECT_FALSE(Art.validateFor(*Same).has_value());
}

TEST(ArtifactTest, TrainCachedRetrainsOverCorruptCache) {
  auto App = createApp("pso");
  std::string Path = tempPath("corrupt-cache.opprox.json");
  {
    std::ofstream Out(Path);
    Out << "{\"not\": \"an artifact\"";
  }
  Expected<Opprox> Tuner = Opprox::trainCached(*App, cheapOptions("pso"), Path);
  ASSERT_TRUE(Tuner) << Tuner.error().message();
  // The corrupt file was replaced by a freshly trained artifact.
  EXPECT_FALSE(Tuner->trainingData().empty());
  Expected<OpproxArtifact> Reloaded = OpproxArtifact::load(Path);
  ASSERT_TRUE(Reloaded) << Reloaded.error().message();
  EXPECT_EQ(Reloaded->AppName, "pso");
  std::remove(Path.c_str());
}

TEST(ArtifactTest, TrainCachedServesMatchingCache) {
  auto App = createApp("pso");
  std::string Path = tempPath("warm-cache.opprox.json");
  Expected<Opprox> Cold = Opprox::trainCached(*App, cheapOptions("pso"), Path);
  ASSERT_TRUE(Cold) << Cold.error().message();
  EXPECT_FALSE(Cold->trainingData().empty());

  Expected<Opprox> Warm = Opprox::trainCached(*App, cheapOptions("pso"), Path);
  ASSERT_TRUE(Warm) << Warm.error().message();
  // Served from cache: no profiling happened, same schedules.
  EXPECT_TRUE(Warm->trainingData().empty());
  const std::vector<double> Input = App->defaultInput();
  EXPECT_EQ(Warm->optimize(Input, 10.0).toString(),
            Cold->optimize(Input, 10.0).toString());
  std::remove(Path.c_str());
}

TEST(ArtifactTest, PhaseScheduleRoundTripsAndValidates) {
  PhaseSchedule S(3, 2);
  S.setLevel(0, 1, 4);
  S.setLevel(2, 0, 1);
  Expected<PhaseSchedule> Back = PhaseSchedule::fromJson(S.toJson());
  ASSERT_TRUE(Back) << Back.error().message();
  EXPECT_EQ(Back->toString(), S.toString());

  // Dimension mismatch and negative levels are rejected.
  Json Bad = S.toJson();
  Bad.set("num_phases", 4);
  EXPECT_FALSE(PhaseSchedule::fromJson(Bad));
  Json Negative = S.toJson();
  Negative.set("levels", Json::numberArray<int>({0, 0, 0, -1, 0, 0}));
  EXPECT_FALSE(PhaseSchedule::fromJson(Negative));
}

TEST(ArtifactTest, ProvenanceRecordsTrainingConfiguration) {
  auto App = createApp("pso");
  OpproxTrainOptions Opts = cheapOptions("pso");
  Opts.Profiling.Seed = 0xDEADBEEFCAFEF00Dull; // Above 2^53: string field.
  OfflineTrainer::Result R = OfflineTrainer::train(*App, Opts);
  const ArtifactProvenance &P = R.Artifact.Provenance;
  EXPECT_EQ(P.ProfileSeed, Opts.Profiling.Seed);
  EXPECT_EQ(P.RandomJointSamples, Opts.Profiling.RandomJointSamples);
  EXPECT_GT(P.TrainingRuns, 0u);
  EXPECT_FALSE(P.PhaseCountDetected); // NumPhases was fixed at 4.
  EXPECT_FALSE(P.LibraryVersion.empty());

  // The big seed survives serialization exactly.
  Expected<OpproxArtifact> Back =
      OpproxArtifact::deserialize(R.Artifact.serialize());
  ASSERT_TRUE(Back) << Back.error().message();
  EXPECT_EQ(Back->Provenance.ProfileSeed, 0xDEADBEEFCAFEF00Dull);
}

//===----------------------------------------------------------------------===//
// Older artifacts: the schema-1.2 budget_grids section
//===----------------------------------------------------------------------===//

namespace {

/// A "budget_grids" section in the layout 1.2 builds wrote: one grid for
/// the default input's class, holding one point at budget 10, written
/// by hand. Its stored result is deliberately not what Algorithm 2
/// returns (an all-exact schedule that scored nothing), so a reader
/// that still served grid points would fail the comparison below.
Json handWrittenGridSection(const OpproxArtifact &Art) {
  std::vector<int> Exact(Art.numBlocks(), 0);
  Json Decisions = Json::array();
  for (size_t P = 0; P < Art.numPhases(); ++P) {
    Json Decision = Json::object();
    Decision.set("levels", Json::numberArray(Exact));
    Decision.set("predicted_speedup", 1.0);
    Decision.set("predicted_qos", 0.0);
    Decision.set("allocated_budget", 10.0);
    Decisions.push(std::move(Decision));
  }
  Json Result = Json::object();
  Result.set("schedule",
             PhaseSchedule(Art.numPhases(), Art.numBlocks()).toJson());
  Result.set("decisions", std::move(Decisions));
  Result.set("normalized_roi", Json::numberArray(std::vector<double>(
                                   Art.numPhases(), 1.0 / Art.numPhases())));
  Result.set("degraded_phases", Json::array());
  Result.set("configs_evaluated", 0);
  Result.set("configs_pruned", 0);
  Result.set("configs_scored", 0);

  Json Point = Json::object();
  Point.set("budget", 10.0);
  Point.set("result", std::move(Result));
  Json Points = Json::array();
  Points.push(std::move(Point));

  Json Grid = Json::object();
  Grid.set("class_id", static_cast<long>(Art.Model.classOf(Art.DefaultInput)));
  Grid.set("input", Json::numberArray(Art.DefaultInput));
  Grid.set("confidence_p", 0.99);
  Grid.set("conservative", true);
  Grid.set("points", std::move(Points));
  Json Section = Json::array();
  Section.push(std::move(Grid));
  return Section;
}

/// Every field of \p R with doubles as raw bits: equal strings mean
/// bit-identical results.
std::string resultBits(const OptimizationResult &R) {
  std::string Out = R.Schedule.toJson().dump();
  auto Bits = [&Out](double V) {
    Out += ' ' + std::to_string(std::bit_cast<uint64_t>(V));
  };
  for (const PhaseDecision &D : R.Decisions) {
    for (int Level : D.Levels)
      Out += ' ' + std::to_string(Level);
    Bits(D.PredictedSpeedup);
    Bits(D.PredictedQos);
    Bits(D.AllocatedBudget);
  }
  for (double Roi : R.NormalizedRoi)
    Bits(Roi);
  for (size_t Phase : R.DegradedPhases)
    Out += " d" + std::to_string(Phase);
  Out += format(" %zu %zu %zu", R.ConfigsEvaluated, R.ConfigsPruned,
                R.ConfigsScored);
  return Out;
}

/// Loads \p Doc and expects it to behave exactly like the artifact \p Art
/// it was derived from: reserializing gives Art's document back (the
/// budget_grids section, if any, is dropped and the schema version is
/// rewritten to the current one), and every solve is bit-identical to a
/// solve on Art's own document.
void expectLoadsAsIfGridsWereAbsent(const OpproxArtifact &Art,
                                    const Json &Doc) {
  Expected<OpproxArtifact> Back = OpproxArtifact::fromJson(Doc);
  ASSERT_TRUE(Back) << Back.error().message();
  EXPECT_EQ(Back->serialize(), Art.serialize());

  Expected<OpproxArtifact> Ref = OpproxArtifact::deserialize(Art.serialize());
  ASSERT_TRUE(Ref) << Ref.error().message();
  OpproxRuntime RefRt = OpproxRuntime::fromArtifact(*Ref);
  OpproxRuntime Rt = OpproxRuntime::fromArtifact(*Back);
  for (double Budget : {2.0, 10.0, 25.0})
    EXPECT_EQ(resultBits(Rt.optimizeDetailed(Back->DefaultInput, Budget)),
              resultBits(RefRt.optimizeDetailed(Ref->DefaultInput, Budget)))
        << "budget " << Budget;
}

/// \p Art's document, which never carries budget_grids.
Json strippedDocument(const OpproxArtifact &Art) {
  Expected<Json> Doc = Json::parse(Art.serialize());
  EXPECT_TRUE(Doc);
  EXPECT_EQ(Doc->find("budget_grids"), nullptr)
      << "budget_grids is no longer written";
  return *Doc;
}

} // namespace

// Builds that still had the budget-grid layer wrote an optional
// "budget_grids" section into 1.2 artifacts. Such a document must load
// whether the section is well formed or not, and every solve must be
// bit-identical to the same document without the section -- as must a
// 1.1 document, which predates the section.

TEST(ArtifactTest, BudgetGridsRoundTripBitExactly) {
  // A well-formed section is read past: the loaded artifact reserializes
  // byte-exactly to the stripped document, and the hand-written point
  // at budget 10 is never served in place of a solve.
  OpproxArtifact Art = trainArtifact("pso");
  Json Doc = strippedDocument(Art);
  Doc.set("budget_grids", handWrittenGridSection(Art));
  expectLoadsAsIfGridsWereAbsent(Art, Doc);
}

TEST(ArtifactTest, LegacyMinorSchemaLoadsWithGridsAbsent) {
  OpproxArtifact Art = trainArtifact("pso");
  Json Doc = strippedDocument(Art);
  Json Version = Json::object();
  Version.set("major", OpproxArtifact::SchemaMajor);
  Version.set("minor", 1);
  Doc.set("schema_version", std::move(Version));
  expectLoadsAsIfGridsWereAbsent(Art, Doc);
}

TEST(ArtifactTest, CorruptGridSectionDegradesToMissPath) {
  // A damaged section does not fail the load; every request takes the
  // full solve, as with no section at all.
  OpproxArtifact Art = trainArtifact("pso");
  {
    SCOPED_TRACE("section is not an array");
    Json Doc = strippedDocument(Art);
    Doc.set("budget_grids", std::string("corrupt"));
    expectLoadsAsIfGridsWereAbsent(Art, Doc);
  }
  {
    SCOPED_TRACE("grid with every field missing");
    Json Doc = strippedDocument(Art);
    Json Grids = Json::array();
    Grids.push(Json::object());
    Doc.set("budget_grids", std::move(Grids));
    expectLoadsAsIfGridsWereAbsent(Art, Doc);
  }
}
