//===- core/ScheduleCache.h - Sharded LRU schedule cache -------*- C++ -*-===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lookup layer of the optimize pipeline (docs/ARCHITECTURE.md,
/// "Layered optimize pipeline"): a sharded LRU cache from canonical
/// request keys to finished OptimizationResults -- each full-schedule
/// entry with its rendered result document -- plus negative entries that
/// memoize the Error a malformed request produced.
///
/// Correctness contract: a key covers *every* value the optimizer's
/// decision depends on -- the raw bits of the full input vector and the
/// budget, the decision-relevant OptimizeOptions (ConfidenceP,
/// Conservative; the engine/geometry knobs are proven decision-
/// irrelevant by OptimizerEquivalenceTests), and the control-flow class
/// -- so a hit is bit-identical to what the compute layer would have
/// returned. Keys are exact, never quantized: two budgets that differ
/// in one mantissa bit are two entries.
///
/// Concurrency: N independently-locked shards selected by key hash.
/// Every method is safe from any thread; a shard's mutex is held only
/// for the map/list operation, never across model evaluation.
///
//===----------------------------------------------------------------------===//

#ifndef OPPROX_CORE_SCHEDULECACHE_H
#define OPPROX_CORE_SCHEDULECACHE_H

#include "core/Optimizer.h"
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

namespace opprox {

struct ScheduleCacheOptions {
  /// Independently-locked shards. More shards reduce lock contention
  /// between serving threads; the bit-identity contract holds for any
  /// count (OPPROX_CACHE_SHARDS / --cache-shards). Clamped to
  /// [1, max(1, Capacity)] so Capacity bounds the total entry count.
  size_t Shards = 8;
  /// Total entries across all shards, positive and negative together.
  /// 0 disables insertion entirely, turning every lookup into a miss
  /// (OPPROX_CACHE_CAPACITY / --cache-capacity).
  size_t Capacity = 4096;
};

/// Sharded LRU map from canonical optimize-request keys to results.
class ScheduleCache {
public:
  /// A canonical request key: the FNV-1a hash (shard selection) over the
  /// canonical byte encoding, plus the bytes themselves (full compare on
  /// lookup, so hash collisions can never alias two requests).
  struct Key {
    uint64_t Hash = 0;
    std::string Bytes;
  };

  /// Canonical encoding of everything the decision depends on: class id,
  /// raw budget bits, raw ConfidenceP bits, the Conservative flag, the
  /// first phase the solve covers (0 for full-schedule solves, the
  /// resume phase for online tail re-solves), and the raw bits of every
  /// input value. \p ClassId is the model's control-flow class for the
  /// input (pass a negative sentinel for requests too malformed to
  /// classify).
  static Key makeKey(int ClassId, const std::vector<double> &Input,
                     double Budget, const OptimizeOptions &Opts,
                     size_t FirstPhase = 0);

  explicit ScheduleCache(const ScheduleCacheOptions &Opts = {});

  /// One finished solve, shared by the entry and every hit on it: a hit
  /// copies this pointer under the shard lock, never the result.
  struct Solved {
    OptimizationResult Result;
    /// optimizationResultJson(...).dump() for full-schedule solves --
    /// the bytes a wire response splices in. Empty for tail re-solves,
    /// which only the online controller reads.
    std::string Document;
  };

  /// What a successful lookup found: either a finished solve or the
  /// memoized rejection of a malformed request.
  struct CachedValue {
    bool Negative = false;
    std::shared_ptr<const Solved> Solution; ///< Set when !Negative.
    std::string ErrorMessage;               ///< Valid when Negative.
  };

  /// Finds \p K, refreshing its LRU position. Counts cache.hits,
  /// cache.negative_hits, or cache.misses, and records the lookup
  /// latency into cache.lookup_ns.
  std::optional<CachedValue> lookup(const Key &K);

  /// Inserts (or refreshes) a positive entry and returns it. Evicting
  /// the LRU tail to make room counts cache.evictions. When Capacity is
  /// 0 nothing is stored, but the entry is still returned.
  std::shared_ptr<const Solved> insert(const Key &K, OptimizationResult Result,
                                       std::string Document = {});

  /// Inserts a negative entry memoizing a malformed request's Error.
  void insertNegative(const Key &K, const std::string &ErrorMessage);

  /// Drops every entry in every shard (counts are not reset).
  void clear();

  size_t size() const;
  size_t numShards() const { return Shards.size(); }
  size_t capacity() const { return TotalCapacity; }

private:
  struct Entry {
    std::string KeyBytes;
    CachedValue Value;
  };
  struct Shard {
    mutable std::mutex Mutex;
    std::list<Entry> Lru; ///< Front = most recently used.
    std::unordered_map<std::string, std::list<Entry>::iterator> Map;
  };

  Shard &shardFor(const Key &K) { return *Shards[K.Hash % Shards.size()]; }
  void insertValue(const Key &K, CachedValue Value);

  std::vector<std::unique_ptr<Shard>> Shards;
  size_t TotalCapacity;
  size_t PerShardCapacity;
};

} // namespace opprox

#endif // OPPROX_CORE_SCHEDULECACHE_H
