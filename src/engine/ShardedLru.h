//===- engine/ShardedLru.h - Sharded, bounded second-chance LRU -*- C++ -*-===//
//
// Part of the Regel reproduction. The cache primitive behind the engine's
// cross-run regex -> DFA store (engine/Caches.h): a thread-safe map from K
// to V split into independently locked shards, each bounded by an entry
// cap and a cost cap (CacheLimits) and evicting from the cold end of its
// recency list.
//
// Sharding bounds lock contention: keys hash to one of N shards, so
// workers rarely collide on a mutex. Hash picks the shard
// (Hash(K) % shards) and also hashes the shard's map.
//
// Eviction is second-chance (scan-resistant) LRU: an entry that has been
// referenced since it last reached the cold end is cycled back with its
// reference bit cleared instead of evicted. Synthesis workloads are
// mostly one-touch scans (each job publishes hundreds of job-specific
// entries it will only ever look up itself), with a small cross-job core
// that is re-referenced constantly; under pure LRU the scan flushes that
// core, under second chance it stays resident. A lookup hit and a
// duplicate publish (a second run needed the entry) both count as a
// reference.
//
// A store built on this must cache a deterministic computation, so that
// eviction never changes an answer: a re-looked-up evicted entry is just
// recomputed.
//
//===----------------------------------------------------------------------===//

#ifndef REGEL_ENGINE_SHARDEDLRU_H
#define REGEL_ENGINE_SHARDEDLRU_H

#include "support/Mutex.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

namespace regel::engine {

/// Size limits for one sharded store; zero means unlimited. Caps are
/// enforced per shard (global cap / shard count, floored, at least 1), so
/// the global figure is a firm upper bound whenever it is at least the
/// shard count, and approximate below that.
struct CacheLimits {
  /// Maximum entries across all shards.
  size_t MaxEntries = 0;

  /// Maximum summed entry cost across all shards, in the units of the
  /// store's cost functor (for the DFA store, automaton states +
  /// transitions; see ShardedDfaStore::dfaCost).
  uint64_t MaxCost = 0;
};

/// splitmix64 finalizer: a cheap full-avalanche mix so shard selection
/// depends on every bit of a key hash, not just the low ones.
inline uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

/// A sharded, thread-safe, second-chance-LRU-bounded map from K to V.
/// CostFn(V) weighs an entry against CacheLimits::MaxCost.
template <typename K, typename V, typename Hash, typename Eq, typename CostFn>
class ShardedLru {
public:
  explicit ShardedLru(unsigned NumShards = 16, CacheLimits L = {})
      : Limits(L) {
    NumShards = std::max(1u, NumShards);
    Shards.reserve(NumShards);
    for (unsigned I = 0; I < NumShards; ++I)
      Shards.push_back(std::make_unique<Shard>());
    MaxEntriesPerShard = perShard(Limits.MaxEntries);
    MaxCostPerShard = perShard(Limits.MaxCost);
  }

  /// Copies the value stored for \p Key into \p Out and marks the entry
  /// referenced; false (and \p Out untouched) on a miss.
  bool lookup(const K &Key, V &Out) {
    Shard &S = shardFor(Key);
    MutexLock Guard(S.M);
    auto It = S.Map.find(Key);
    if (It == S.Map.end()) {
      Misses.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    Hits.fetch_add(1, std::memory_order_relaxed);
    touchLocked(S, It->second);
    Out = It->second->Value;
    return true;
  }

  /// Inserts (\p Key, \p Value) and evicts until the shard's caps hold.
  /// The first publisher wins: publishing a present key only counts as a
  /// reference to the stored entry.
  void publish(K Key, V Value) {
    Shard &S = shardFor(Key);
    MutexLock Guard(S.M);
    auto It = S.Map.find(Key);
    if (It != S.Map.end()) {
      touchLocked(S, It->second);
      return;
    }
    const uint64_t C = CostFn()(Value);
    S.Lru.push_front(Entry{Key, std::move(Value), C});
    S.Cost += C;
    S.Map.emplace(std::move(Key), S.Lru.begin());
    evictOverLocked(S);
  }

  size_t size() const {
    size_t Total = 0;
    for (const std::unique_ptr<Shard> &S : Shards) {
      MutexLock Guard(S->M);
      Total += S->Map.size();
    }
    return Total;
  }

  /// Summed cost of every stored entry.
  uint64_t costUnits() const {
    uint64_t Total = 0;
    for (const std::unique_ptr<Shard> &S : Shards) {
      MutexLock Guard(S->M);
      Total += S->Cost;
    }
    return Total;
  }

  void clear() {
    for (std::unique_ptr<Shard> &S : Shards) {
      MutexLock Guard(S->M);
      S->Map.clear();
      S->Lru.clear();
      S->Cost = 0;
    }
  }

  const CacheLimits &limits() const { return Limits; }

  uint64_t hits() const { return Hits.load(std::memory_order_relaxed); }
  uint64_t misses() const { return Misses.load(std::memory_order_relaxed); }
  uint64_t evictions() const {
    return Evictions.load(std::memory_order_relaxed);
  }

private:
  struct Entry {
    K Key;
    V Value;
    uint64_t Cost;
    bool Hot = false; ///< referenced since it last reached the cold end
  };
  using EntryIt = typename std::list<Entry>::iterator;
  struct Shard {
    mutable Mutex M;
    std::list<Entry> Lru REGEL_GUARDED_BY(M); ///< front = most recently used
    std::unordered_map<K, EntryIt, Hash, Eq> Map REGEL_GUARDED_BY(M);
    uint64_t Cost REGEL_GUARDED_BY(M) = 0; ///< summed entry cost
  };

  /// Splits a global cap over the shards: floored (so the global figure
  /// is an upper bound), but never below one unit per shard.
  template <typename T> T perShard(T GlobalCap) const {
    if (GlobalCap == 0)
      return 0;
    return std::max<T>(1, GlobalCap / static_cast<T>(Shards.size()));
  }

  Shard &shardFor(const K &Key) {
    return *Shards[Hash()(Key) % Shards.size()];
  }

  void touchLocked(Shard &S, EntryIt It) REGEL_REQUIRES(S.M) {
    It->Hot = true;
    S.Lru.splice(S.Lru.begin(), S.Lru, It);
  }

  void evictOverLocked(Shard &S) REGEL_REQUIRES(S.M) {
    // Evict cold entries until both caps hold; a single entry whose cost
    // alone exceeds the cost cap is evicted too (it would otherwise pin
    // the shard over budget forever). A referenced entry reaching the
    // cold end is recycled once, reference bit cleared, instead of
    // evicted. Recycles are bounded by the list length at entry, which
    // guarantees termination.
    size_t Chances = S.Lru.size();
    while (!S.Lru.empty() &&
           ((MaxEntriesPerShard && S.Map.size() > MaxEntriesPerShard) ||
            (MaxCostPerShard && S.Cost > MaxCostPerShard))) {
      Entry &Victim = S.Lru.back();
      if (Victim.Hot && Chances > 0) {
        --Chances;
        Victim.Hot = false;
        S.Lru.splice(S.Lru.begin(), S.Lru, std::prev(S.Lru.end()));
        continue;
      }
      S.Cost -= Victim.Cost;
      S.Map.erase(Victim.Key);
      S.Lru.pop_back();
      Evictions.fetch_add(1, std::memory_order_relaxed);
    }
  }

  std::vector<std::unique_ptr<Shard>> Shards;
  CacheLimits Limits;
  size_t MaxEntriesPerShard = 0;
  uint64_t MaxCostPerShard = 0;
  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> Misses{0};
  std::atomic<uint64_t> Evictions{0};
};

} // namespace regel::engine

#endif // REGEL_ENGINE_SHARDEDLRU_H
