//===- core/ScheduleCache.cpp ---------------------------------------------===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/ScheduleCache.h"
#include "support/Telemetry.h"
#include <algorithm>
#include <chrono>
#include <cstring>

using namespace opprox;

namespace {

/// Cached instrument handles (see docs/OBSERVABILITY.md, "cache.*"):
/// the lookup hot path touches only relaxed atomics.
struct CacheMetrics {
  Counter &Hits = MetricsRegistry::global().counter("cache.hits");
  Counter &Misses = MetricsRegistry::global().counter("cache.misses");
  Counter &NegativeHits =
      MetricsRegistry::global().counter("cache.negative_hits");
  Counter &Evictions = MetricsRegistry::global().counter("cache.evictions");
  Histogram &LookupNs = MetricsRegistry::global().histogram(
      "cache.lookup_ns", Histogram::latencyBoundsNs());

  static CacheMetrics &get() {
    static CacheMetrics M;
    return M;
  }
};

void appendRaw(std::string &Out, const void *Data, size_t Size) {
  Out.append(static_cast<const char *>(Data), Size);
}

/// FNV-1a over the canonical bytes: cheap, deterministic across
/// processes, and good enough for shard spreading -- exactness comes
/// from the full-key compare, never from the hash.
uint64_t fnv1a(const std::string &Bytes) {
  uint64_t Hash = 1469598103934665603ull;
  for (unsigned char C : Bytes) {
    Hash ^= C;
    Hash *= 1099511628211ull;
  }
  return Hash;
}

} // namespace

ScheduleCache::Key ScheduleCache::makeKey(int ClassId,
                                          const std::vector<double> &Input,
                                          double Budget,
                                          const OptimizeOptions &Opts,
                                          size_t FirstPhase) {
  Key K;
  K.Bytes.reserve(2 * sizeof(double) + sizeof(int32_t) + sizeof(uint32_t) + 1 +
                  Input.size() * sizeof(double));
  int32_t Class = static_cast<int32_t>(ClassId);
  appendRaw(K.Bytes, &Class, sizeof(Class));
  uint32_t First = static_cast<uint32_t>(FirstPhase);
  appendRaw(K.Bytes, &First, sizeof(First));
  // Raw bit patterns, not values: -0.0 vs 0.0 and distinct NaN payloads
  // are distinct keys, which is what keeps a hit bit-identical to the
  // compute path for *this exact* request.
  appendRaw(K.Bytes, &Budget, sizeof(Budget));
  appendRaw(K.Bytes, &Opts.ConfidenceP, sizeof(Opts.ConfidenceP));
  K.Bytes.push_back(Opts.Conservative ? '\1' : '\0');
  for (double V : Input)
    appendRaw(K.Bytes, &V, sizeof(V));
  K.Hash = fnv1a(K.Bytes);
  return K;
}

ScheduleCache::ScheduleCache(const ScheduleCacheOptions &Opts)
    : TotalCapacity(Opts.Capacity) {
  // At most one shard per entry: each shard holds at least one entry,
  // so more shards than Capacity would hold more than Capacity entries.
  size_t NumShards = std::clamp<size_t>(
      Opts.Shards, 1, std::max<size_t>(1, TotalCapacity));
  Shards.reserve(NumShards);
  for (size_t S = 0; S < NumShards; ++S)
    Shards.push_back(std::make_unique<Shard>());
  PerShardCapacity =
      TotalCapacity == 0 ? 0 : std::max<size_t>(1, TotalCapacity / NumShards);
}

std::optional<ScheduleCache::CachedValue>
ScheduleCache::lookup(const Key &K) {
  CacheMetrics &M = CacheMetrics::get();
  auto Start = std::chrono::steady_clock::now();
  std::optional<CachedValue> Found;
  {
    Shard &S = shardFor(const_cast<Key &>(K));
    std::lock_guard<std::mutex> Lock(S.Mutex);
    auto It = S.Map.find(K.Bytes);
    if (It != S.Map.end()) {
      S.Lru.splice(S.Lru.begin(), S.Lru, It->second);
      Found = It->second->Value;
    }
  }
  M.LookupNs.record(static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - Start)
          .count()));
  if (!Found) {
    M.Misses.add();
    return std::nullopt;
  }
  if (Found->Negative)
    M.NegativeHits.add();
  else
    M.Hits.add();
  return Found;
}

void ScheduleCache::insertValue(const Key &K, CachedValue Value) {
  if (PerShardCapacity == 0)
    return;
  CacheMetrics &M = CacheMetrics::get();
  Shard &S = shardFor(const_cast<Key &>(K));
  std::lock_guard<std::mutex> Lock(S.Mutex);
  auto It = S.Map.find(K.Bytes);
  if (It != S.Map.end()) {
    // A concurrent miss already computed this entry; both values are
    // bit-identical by construction, so refreshing is enough.
    It->second->Value = std::move(Value);
    S.Lru.splice(S.Lru.begin(), S.Lru, It->second);
    return;
  }
  while (S.Lru.size() >= PerShardCapacity) {
    S.Map.erase(S.Lru.back().KeyBytes);
    S.Lru.pop_back();
    M.Evictions.add();
  }
  S.Lru.push_front(Entry{K.Bytes, std::move(Value)});
  S.Map.emplace(K.Bytes, S.Lru.begin());
}

std::shared_ptr<const ScheduleCache::Solved>
ScheduleCache::insert(const Key &K, OptimizationResult Result,
                      std::string Document) {
  auto Entry = std::make_shared<const Solved>(
      Solved{std::move(Result), std::move(Document)});
  CachedValue Value;
  Value.Solution = Entry;
  insertValue(K, std::move(Value));
  return Entry;
}

void ScheduleCache::insertNegative(const Key &K,
                                   const std::string &ErrorMessage) {
  CachedValue Value;
  Value.Negative = true;
  Value.ErrorMessage = ErrorMessage;
  insertValue(K, std::move(Value));
}

void ScheduleCache::clear() {
  for (auto &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->Mutex);
    S->Map.clear();
    S->Lru.clear();
  }
}

size_t ScheduleCache::size() const {
  size_t Total = 0;
  for (const auto &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->Mutex);
    Total += S->Lru.size();
  }
  return Total;
}
