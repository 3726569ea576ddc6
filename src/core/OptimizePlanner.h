//===- core/OptimizePlanner.h - Plan/lookup/compute facade -----*- C++ -*-===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single entry point of the layered optimize pipeline
/// (docs/ARCHITECTURE.md, "Layered optimize pipeline"). Every caller --
/// OpproxRuntime, opprox-optimize, the opprox-serve shards -- routes
/// requests through one OptimizePlanner instead of calling the
/// optimizer directly:
///
///  1. **Plan**: validate and normalize the request (budget finiteness,
///     input arity) and derive the canonical cache key from the
///     control-flow class, the raw input/budget bits, and the
///     decision-relevant options.
///  2. **Lookup**: consult the sharded ScheduleCache (positive and
///     negative entries).
///  3. **Compute**: fall through to the batched Algorithm-2 search,
///     and memoize the result -- for a full-schedule solve together
///     with its rendered result document, so a warm hit hands the
///     serving tier finished response bytes.
///
/// The contract is bit-identity: a result served from the cache is
/// byte-for-byte what the compute layer would have produced for the
/// same request (proven by OptimizerEquivalenceTests). Results whose
/// solve degraded (non-empty DegradedPhases) are never cached, so a
/// fault-degraded schedule cannot outlive the fault that caused it.
///
//===----------------------------------------------------------------------===//

#ifndef OPPROX_CORE_OPTIMIZEPLANNER_H
#define OPPROX_CORE_OPTIMIZEPLANNER_H

#include "core/ModelArtifact.h"
#include "core/ScheduleCache.h"

namespace opprox {

struct PlannerOptions {
  ScheduleCacheOptions Cache;
  /// False disables the schedule cache entirely: no lookups, no
  /// insertions, no cache.* traffic (--no-cache / OPPROX_CACHE_DISABLE).
  bool UseCache = true;
  /// Executors for the compute layer's chunked scan: 1 = serial (the
  /// default -- cache-miss solves run inline on the calling thread),
  /// 0 = auto-detect (OPPROX_THREADS, else hardware concurrency), N =
  /// exactly N. Above 1 the planner owns one shared ThreadPool that
  /// every compute-layer solve fans its chunks across -- including
  /// solves issued from other pools' workers, like the opprox-serve
  /// shards (--scan-threads / OPPROX_SCAN_THREADS). Decision-
  /// irrelevant: the scan is bit-identical for every executor count.
  size_t ScanThreads = 1;
};

/// PlannerOptions with the OPPROX_CACHE_SHARDS / OPPROX_CACHE_CAPACITY /
/// OPPROX_CACHE_DISABLE environment overrides applied on top of the
/// defaults. Unparsable values are ignored.
PlannerOptions plannerOptionsFromEnv();

/// Per-request latency attribution filled in by the planner when the
/// caller hands one in (the serving tier's serve.stage_ms.* histograms).
/// The out-param is optional precisely so the warm-cache hot path pays
/// zero extra clock reads when nobody is watching: with a null pointer
/// the planner takes no timestamps at all.
struct PlannerStageBreakdown {
  double LookupMs = 0.0;  ///< Key building + cache probe.
  double ComputeMs = 0.0; ///< Full Algorithm-2 solve + memoization.
  bool CacheHit = false;  ///< Served from the schedule cache.
  /// The cached entry's rendered result document
  /// (optimizationResultJson(...).dump()), set when a full-schedule
  /// solve was served from or inserted into the cache; null otherwise
  /// (cache disabled, degraded solve, tail re-solve, rejected request).
  std::shared_ptr<const std::string> Document;
};

/// The plan -> lookup -> compute pipeline for one artifact's requests.
/// The planner owns the schedule cache; its lifetime *is* the cache
/// lifetime, which is what makes hot swaps safe -- a new runtime gets a
/// new planner, so entries from the old artifact are unreachable by
/// construction. Thread-safe: both optimize entry points may be called
/// concurrently from any number of threads.
class OptimizePlanner {
public:
  explicit OptimizePlanner(const PlannerOptions &Opts = {});
  ~OptimizePlanner(); // Out of line: ThreadPool is incomplete here.

  /// Request-driven entry point (serving, CLI with untrusted input):
  /// malformed requests (negative or non-finite budget, wrong input
  /// arity) come back as an Error -- memoized as a negative cache entry
  /// so repeat offenders skip revalidation. When \p Stages is non-null
  /// the lookup/compute intervals and hit flags are reported through it;
  /// validation time is the caller-visible residual.
  Expected<OptimizationResult>
  optimize(const OpproxArtifact &Art, const std::vector<double> &Input,
           double QosBudget, const OptimizeOptions &Opts,
           PlannerStageBreakdown *Stages = nullptr) const;

  /// Trusted entry point (in-process callers whose budget is a program
  /// invariant): an invalid budget falls through to the compute layer,
  /// which terminates via reportFatalError exactly as the un-layered
  /// path did. No negative caching.
  OptimizationResult optimizeTrusted(const OpproxArtifact &Art,
                                     const std::vector<double> &Input,
                                     double QosBudget,
                                     const OptimizeOptions &Opts) const;

  /// The online controller's re-solve entry point: Algorithm 2 over
  /// phases [FirstPhase, numPhases) only, with phases the run already
  /// executed pinned to the exact configuration. Same plan/lookup/
  /// compute pipeline as optimize() -- tail results are memoized under
  /// keys that include FirstPhase, so a controller replaying the same
  /// feedback stream hits the cache and stays bit-deterministic.
  /// FirstPhase == 0 is exactly optimize(); FirstPhase >= numPhases is
  /// rejected as an Error.
  Expected<OptimizationResult>
  optimizeTail(const OpproxArtifact &Art, const std::vector<double> &Input,
               double QosBudget, size_t FirstPhase,
               const OptimizeOptions &Opts,
               PlannerStageBreakdown *Stages = nullptr) const;

  bool cacheEnabled() const { return Cache != nullptr; }
  /// The owned cache; null when UseCache was false.
  ScheduleCache *cache() const { return Cache.get(); }
  /// The owned scan pool; null when ScanThreads resolved to serial.
  ThreadPool *scanPool() const { return ScanPool.get(); }
  /// Executors a compute-layer solve engages: the scan pool's workers
  /// plus the calling thread, or 1 when solves run serially.
  size_t scanExecutors() const;
  const PlannerOptions &options() const { return Opts; }

private:
  /// Lookup + compute for a validated request: cache, then the
  /// (possibly tail-restricted) solve. \p Stages (nullable) receives the
  /// layer timings.
  OptimizationResult lookupOrCompute(const OpproxArtifact &Art, int ClassId,
                                     const std::vector<double> &Input,
                                     double QosBudget, size_t FirstPhase,
                                     const OptimizeOptions &Opts,
                                     PlannerStageBreakdown *Stages) const;

  PlannerOptions Opts;
  std::unique_ptr<ScheduleCache> Cache;
  /// Shared across all concurrent compute-layer solves; parallelFor is
  /// safe from any number of callers, and chunk tasks from concurrent
  /// requests simply interleave in the FIFO queue.
  std::unique_ptr<ThreadPool> ScanPool;
};

} // namespace opprox

#endif // OPPROX_CORE_OPTIMIZEPLANNER_H
