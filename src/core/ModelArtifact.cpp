//===- core/ModelArtifact.cpp ---------------------------------------------===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/ModelArtifact.h"
#include "apps/ApproxApp.h"
#include "support/FaultInjection.h"
#include "support/Json.h"
#include "support/Log.h"
#include "support/StringUtils.h"
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unistd.h>

using namespace opprox;

/// Document type tag; the very first member of every artifact, so a
/// wrong or truncated file fails with an immediate, specific message.
static const char *const kFormatTag = "opprox-artifact";

/// 64-bit seeds exceed the exactly-representable double range, so they
/// travel as decimal strings.
static Expected<uint64_t> getSeed(const Json &Obj, const std::string &Key) {
  Expected<std::string> Text = getString(Obj, Key);
  if (!Text)
    return Text.error();
  if (Text->empty() || Text->find_first_not_of("0123456789") != std::string::npos)
    return Error(format("field '%s' is not a decimal seed string",
                        Key.c_str()));
  errno = 0;
  uint64_t Seed = std::strtoull(Text->c_str(), nullptr, 10);
  if (errno == ERANGE)
    return Error(format("seed '%s' overflows 64 bits", Text->c_str()));
  return Seed;
}

Json OpproxArtifact::toJson() const {
  Json Out = Json::object();
  Out.set("format", kFormatTag);
  Json Schema = Json::object();
  Schema.set("major", SchemaMajor);
  Schema.set("minor", SchemaMinor);
  Out.set("schema_version", std::move(Schema));

  Json App = Json::object();
  App.set("name", AppName);
  Json Params = Json::array();
  for (const std::string &Name : ParameterNames)
    Params.push(Name);
  App.set("parameters", std::move(Params));
  App.set("max_levels", Json::numberArray(MaxLevels));
  App.set("default_input", Json::numberArray(DefaultInput));
  Out.set("app", std::move(App));

  Json Prov = Json::object();
  Prov.set("library_version", Provenance.LibraryVersion);
  Prov.set("profile_seed", std::to_string(Provenance.ProfileSeed));
  Prov.set("model_seed", std::to_string(Provenance.ModelSeed));
  Prov.set("training_runs", Provenance.TrainingRuns);
  Prov.set("random_joint_samples", Provenance.RandomJointSamples);
  Prov.set("phase_count_detected", Provenance.PhaseCountDetected);
  if (!Provenance.TrainingMetrics.empty()) {
    // Optional since schema 1.1: the monotone telemetry diff across
    // training. Already name-sorted, so serialization is deterministic.
    Json Metrics = Json::object();
    for (const auto &[Name, Value] : Provenance.TrainingMetrics)
      Metrics.set(Name, Value);
    Prov.set("training_metrics", std::move(Metrics));
  }
  Out.set("provenance", std::move(Prov));

  Out.set("model", Model.toJson());
  return Out;
}

Expected<OpproxArtifact> OpproxArtifact::fromJson(const Json &Value) {
  if (!Value.isObject())
    return Error("artifact document is not a JSON object");
  Expected<std::string> Format = getString(Value, "format");
  if (!Format)
    return Format.error();
  if (*Format != kFormatTag)
    return Error(format("not an OPPROX artifact (format tag '%s')",
                        Format->c_str()));

  Expected<const Json *> Schema = getObject(Value, "schema_version");
  if (!Schema)
    return Schema.error();
  Expected<long> Major = getInt(**Schema, "major");
  if (!Major)
    return Major.error();
  Expected<long> Minor = getInt(**Schema, "minor");
  if (!Minor)
    return Minor.error();
  if (*Major != SchemaMajor)
    return Error(format("artifact schema version %ld.%ld is not supported; "
                        "this library reads major version %ld",
                        *Major, *Minor, SchemaMajor));

  Expected<const Json *> App = getObject(Value, "app");
  if (!App)
    return App.error();
  Expected<std::string> Name = getString(**App, "name");
  if (!Name)
    return Name.error();
  Expected<const Json *> Params = getArray(**App, "parameters");
  if (!Params)
    return Params.error();
  Expected<std::vector<int>> MaxLevels = getIntVector(**App, "max_levels");
  if (!MaxLevels)
    return MaxLevels.error();
  Expected<std::vector<double>> DefaultInput =
      getNumberVector(**App, "default_input");
  if (!DefaultInput)
    return DefaultInput.error();

  Expected<const Json *> Prov = getObject(Value, "provenance");
  if (!Prov)
    return Prov.error();
  Expected<std::string> LibraryVersion = getString(**Prov, "library_version");
  if (!LibraryVersion)
    return LibraryVersion.error();
  Expected<uint64_t> ProfileSeed = getSeed(**Prov, "profile_seed");
  if (!ProfileSeed)
    return ProfileSeed.error();
  Expected<uint64_t> ModelSeed = getSeed(**Prov, "model_seed");
  if (!ModelSeed)
    return ModelSeed.error();
  Expected<size_t> TrainingRuns = getSize(**Prov, "training_runs");
  if (!TrainingRuns)
    return TrainingRuns.error();
  Expected<size_t> JointSamples = getSize(**Prov, "random_joint_samples");
  if (!JointSamples)
    return JointSamples.error();
  Expected<bool> Detected = getBool(**Prov, "phase_count_detected");
  if (!Detected)
    return Detected.error();

  Expected<const Json *> ModelJson = getObject(Value, "model");
  if (!ModelJson)
    return ModelJson.error();
  Expected<AppModel> Model = AppModel::fromJson(**ModelJson);
  if (!Model)
    return Error(format("model: %s", Model.error().message().c_str()));

  OpproxArtifact Artifact;
  Artifact.AppName = std::move(*Name);
  for (size_t I = 0; I < (*Params)->size(); ++I) {
    const Json &Param = (*Params)->at(I);
    if (!Param.isString())
      return Error(format("parameter name %zu is not a string", I));
    Artifact.ParameterNames.push_back(Param.asString());
  }
  Artifact.MaxLevels = std::move(*MaxLevels);
  Artifact.DefaultInput = std::move(*DefaultInput);
  Artifact.Model = std::move(*Model);
  Artifact.Provenance.LibraryVersion = std::move(*LibraryVersion);
  Artifact.Provenance.ProfileSeed = *ProfileSeed;
  Artifact.Provenance.ModelSeed = *ModelSeed;
  Artifact.Provenance.TrainingRuns = *TrainingRuns;
  Artifact.Provenance.RandomJointSamples = *JointSamples;
  Artifact.Provenance.PhaseCountDetected = *Detected;
  if (const Json *Metrics = (*Prov)->find("training_metrics")) {
    if (!Metrics->isObject())
      return Error("provenance training_metrics is not an object");
    for (const auto &[MetricName, MetricValue] : Metrics->members()) {
      if (!MetricValue.isNumber())
        return Error(format("training metric '%s' is not a number",
                            MetricName.c_str()));
      Artifact.Provenance.TrainingMetrics.emplace_back(MetricName,
                                                       MetricValue.asNumber());
    }
  }

  for (int Level : Artifact.MaxLevels)
    if (Level < 0)
      return Error("negative maximum level in artifact");
  if (Artifact.Model.numBlocks() != Artifact.MaxLevels.size())
    return Error(format("artifact models %zu blocks but lists %zu level "
                        "ranges",
                        Artifact.Model.numBlocks(),
                        Artifact.MaxLevels.size()));
  return Artifact;
}

std::string OpproxArtifact::serialize() const { return toJson().dump(2) + "\n"; }

Expected<OpproxArtifact> OpproxArtifact::deserialize(const std::string &Text) {
  // The corruption site truncates the document mid-file rather than
  // returning a synthetic error, so the injected failure exercises the
  // real parse-error path a half-written artifact would hit.
  if (faultPoint(faults::ArtifactCorrupt)) {
    Expected<Json> Doc = Json::parse(Text.substr(0, Text.size() / 2));
    if (!Doc)
      return Doc.error();
    return fromJson(*Doc);
  }
  Expected<Json> Doc = Json::parse(Text);
  if (!Doc)
    return Doc.error();
  return fromJson(*Doc);
}

std::optional<Error> OpproxArtifact::save(const std::string &Path) const {
  if (faultPoint(faults::ArtifactWrite))
    return Error(format("fault injection: simulated write failure saving "
                        "'%s'",
                        Path.c_str()));
  // Write-then-rename: a reader (most importantly a hot-swapping server
  // reloading this path on SIGHUP) must never observe a half-written
  // artifact. The temp name carries the pid so concurrent savers of the
  // same path never collide; rename within a directory is atomic.
  std::string Tmp =
      format("%s.tmp.%ld", Path.c_str(), static_cast<long>(::getpid()));
  if (std::optional<Error> E = writeFile(Tmp, serialize()))
    return E;
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    Error E(format("cannot rename '%s' into place: %s", Tmp.c_str(),
                   std::strerror(errno)));
    std::remove(Tmp.c_str());
    return E;
  }
  return std::nullopt;
}

std::optional<Error> OpproxArtifact::save(const std::string &Path,
                                          const RetryPolicy &Policy) const {
  Counter &Retries =
      MetricsRegistry::global().counter("train.artifact_save_retries");
  Expected<bool> Result = retryWithBackoff(
      Policy,
      [&]() -> Expected<bool> {
        if (std::optional<Error> E = save(Path))
          return *E;
        return true;
      },
      [&](size_t Attempt, const Error &E) {
        Retries.add();
        logInfo("artifact save attempt %zu failed (%s); retrying",
                Attempt, E.message().c_str());
      });
  if (!Result)
    return Result.error();
  return std::nullopt;
}

Expected<OpproxArtifact> OpproxArtifact::load(const std::string &Path) {
  Expected<std::string> Text = readFile(Path);
  if (!Text)
    return Text.error();
  Expected<OpproxArtifact> Artifact = deserialize(*Text);
  if (!Artifact)
    return Error(format("%s: %s", Path.c_str(),
                        Artifact.error().message().c_str()));
  return Artifact;
}

std::optional<Error> OpproxArtifact::validateFor(const ApproxApp &App) const {
  if (AppName != App.name())
    return Error(format("artifact was trained for application '%s', not "
                        "'%s'",
                        AppName.c_str(), App.name().c_str()));
  if (MaxLevels != App.maxLevels())
    return Error(format("artifact level ranges do not match application "
                        "'%s' (artifact has %zu blocks, application %zu)",
                        AppName.c_str(), MaxLevels.size(),
                        App.numBlocks()));
  if (ParameterNames != App.parameterNames())
    return Error(format("artifact parameter names do not match application "
                        "'%s'",
                        AppName.c_str()));
  return std::nullopt;
}
