//===- core/OptimizePlanner.cpp -------------------------------------------===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/OptimizePlanner.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>

using namespace opprox;

/// Class id used in keys for requests too malformed to classify (the
/// classifier expects a well-formed input vector). Real classes are
/// >= 0, so negative-entry keys can never collide with result keys.
static constexpr int kUnclassified = -1;

/// Parses an unsigned decimal environment value no larger than \p Max.
/// strtoull accepts a sign (and wraps "-1" to ULLONG_MAX) and saturates
/// on overflow, so anything but plain digits in range is rejected.
static std::optional<size_t>
envSize(const char *Name, size_t Max = std::numeric_limits<size_t>::max()) {
  const char *Value = std::getenv(Name);
  if (!Value || !std::isdigit(static_cast<unsigned char>(*Value)))
    return std::nullopt;
  char *End = nullptr;
  errno = 0;
  unsigned long long Parsed = std::strtoull(Value, &End, 10);
  if (*End != '\0' || errno == ERANGE || Parsed > Max)
    return std::nullopt;
  return static_cast<size_t>(Parsed);
}

PlannerOptions opprox::plannerOptionsFromEnv() {
  PlannerOptions Opts;
  if (std::optional<size_t> Shards = envSize("OPPROX_CACHE_SHARDS"))
    Opts.Cache.Shards = *Shards;
  if (std::optional<size_t> Capacity = envSize("OPPROX_CACHE_CAPACITY"))
    Opts.Cache.Capacity = *Capacity;
  if (const char *Disable = std::getenv("OPPROX_CACHE_DISABLE"))
    if (*Disable && std::string(Disable) != "0")
      Opts.UseCache = false;
  if (std::optional<size_t> ScanThreads =
          envSize("OPPROX_SCAN_THREADS", ThreadPool::MaxExecutors))
    Opts.ScanThreads = *ScanThreads;
  return Opts;
}

OptimizePlanner::OptimizePlanner(const PlannerOptions &Opts) : Opts(Opts) {
  if (Opts.UseCache)
    Cache = std::make_unique<ScheduleCache>(Opts.Cache);
  size_t Executors = Opts.ScanThreads ? Opts.ScanThreads
                                      : ThreadPool::defaultWorkerCount();
  if (Executors > 1)
    ScanPool = std::make_unique<ThreadPool>(Executors - 1);
}

OptimizePlanner::~OptimizePlanner() = default;

size_t OptimizePlanner::scanExecutors() const {
  return ScanPool ? ScanPool->numWorkers() + 1 : 1;
}

/// The entry's rendered document, sharing the entry's ownership; null
/// for entries that keep none (tail re-solves).
static std::shared_ptr<const std::string>
documentOf(const std::shared_ptr<const ScheduleCache::Solved> &Entry) {
  if (Entry->Document.empty())
    return nullptr;
  return std::shared_ptr<const std::string>(Entry, &Entry->Document);
}

OptimizationResult
OptimizePlanner::lookupOrCompute(const OpproxArtifact &Art, int ClassId,
                                 const std::vector<double> &Input,
                                 double QosBudget, size_t FirstPhase,
                                 const OptimizeOptions &Opts,
                                 PlannerStageBreakdown *Stages) const {
  using Clock = std::chrono::steady_clock;
  Clock::time_point LookupStart;
  if (Stages)
    LookupStart = Clock::now();
  auto finishLookup = [&](bool CacheHit) {
    if (!Stages)
      return;
    Stages->LookupMs =
        std::chrono::duration<double, std::milli>(Clock::now() - LookupStart)
            .count();
    Stages->CacheHit = CacheHit;
  };

  ScheduleCache::Key Key;
  if (Cache) {
    Key = ScheduleCache::makeKey(ClassId, Input, QosBudget, Opts, FirstPhase);
    if (std::optional<ScheduleCache::CachedValue> Hit = Cache->lookup(Key))
      if (!Hit->Negative) {
        finishLookup(/*CacheHit=*/true);
        if (Stages)
          Stages->Document = documentOf(Hit->Solution);
        return Hit->Solution->Result;
      }
  }
  finishLookup(/*CacheHit=*/false);

  Clock::time_point ComputeStart;
  if (Stages)
    ComputeStart = Clock::now();
  // Cache miss: the full solve. When the planner owns a scan pool and
  // the caller did not bring its own, fan the chunked scan across it --
  // this is how serve shards (workers of the *server's* pool) reach
  // real scan parallelism; cross-pool parallelFor fans out (see
  // support/ThreadPool.h). Decision-irrelevant, so cache keys ignore it.
  OptimizeOptions ComputeOpts = Opts;
  if (ScanPool && ComputeOpts.Pool == nullptr)
    ComputeOpts.Pool = ScanPool.get();
  OptimizationResult R = optimizeScheduleTail(
      Art.Model, Input, Art.MaxLevels, QosBudget, FirstPhase, ComputeOpts);
  // A degraded result is the fault ladder's answer for *this* request;
  // memoizing it would keep serving the fallback after the fault clears.
  // A full-schedule entry also keeps its result document, rendered here
  // once for every later hit on the key; tail re-solves never reach the
  // wire, so they keep none.
  if (Cache && R.DegradedPhases.empty()) {
    std::string Document;
    if (FirstPhase == 0)
      Document = optimizationResultJson(Art, QosBudget, Input, R).dump();
    std::shared_ptr<const ScheduleCache::Solved> Entry =
        Cache->insert(Key, R, std::move(Document));
    if (Stages)
      Stages->Document = documentOf(Entry);
  }
  if (Stages)
    Stages->ComputeMs =
        std::chrono::duration<double, std::milli>(Clock::now() - ComputeStart)
            .count();
  return R;
}

Expected<OptimizationResult>
OptimizePlanner::optimize(const OpproxArtifact &Art,
                          const std::vector<double> &Input, double QosBudget,
                          const OptimizeOptions &Opts,
                          PlannerStageBreakdown *Stages) const {
  return optimizeTail(Art, Input, QosBudget, /*FirstPhase=*/0, Opts, Stages);
}

Expected<OptimizationResult>
OptimizePlanner::optimizeTail(const OpproxArtifact &Art,
                              const std::vector<double> &Input,
                              double QosBudget, size_t FirstPhase,
                              const OptimizeOptions &Opts,
                              PlannerStageBreakdown *Stages) const {
  if (Stages)
    Stages->Document.reset();
  // Plan layer: the same request checks (and the same messages) the
  // pre-pipeline tryOptimizeDetailed performed, with rejections
  // memoized so repeated malformed requests cost one lookup.
  bool BudgetValid = std::isfinite(QosBudget) && QosBudget >= 0.0;
  bool ArityValid = Art.ParameterNames.empty() ||
                    Input.size() == Art.ParameterNames.size();
  bool FirstPhaseValid = FirstPhase == 0 || FirstPhase < Art.numPhases();
  if (!BudgetValid || !ArityValid || !FirstPhaseValid) {
    ScheduleCache::Key Key;
    if (Cache) {
      Key = ScheduleCache::makeKey(kUnclassified, Input, QosBudget, Opts,
                                   FirstPhase);
      if (std::optional<ScheduleCache::CachedValue> Hit = Cache->lookup(Key))
        if (Hit->Negative)
          return Error(Hit->ErrorMessage);
    }
    Error E = !BudgetValid
                  ? Error(format("QoS budget %g is not a non-negative "
                                 "finite number",
                                 QosBudget))
              : !ArityValid
                  ? Error(format("request has %zu input values but the "
                                 "artifact expects %zu",
                                 Input.size(), Art.ParameterNames.size()))
                  : Error(format("first phase %zu is out of range for a "
                                 "%zu-phase artifact",
                                 FirstPhase, Art.numPhases()));
    if (Cache)
      Cache->insertNegative(Key, E.message());
    return E;
  }
  return lookupOrCompute(Art, Art.Model.classOf(Input), Input, QosBudget,
                         FirstPhase, Opts, Stages);
}

OptimizationResult
OptimizePlanner::optimizeTrusted(const OpproxArtifact &Art,
                                 const std::vector<double> &Input,
                                 double QosBudget,
                                 const OptimizeOptions &Opts) const {
  if (!(std::isfinite(QosBudget) && QosBudget >= 0.0))
    // Preserve the trusted-path contract: the compute layer terminates
    // with the canonical fatal diagnostic.
    return optimizeSchedule(Art.Model, Input, Art.MaxLevels, QosBudget, Opts);
  return lookupOrCompute(Art, Art.Model.classOf(Input), Input, QosBudget,
                         /*FirstPhase=*/0, Opts, /*Stages=*/nullptr);
}
