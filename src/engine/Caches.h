//===- engine/Caches.h - The engine's cross-run DFA store -------*- C++ -*-===//
//
// Part of the Regel reproduction. The engine's one cross-run cache: a
// thread-safe regex -> DFA store behind automata/Compile's DfaStore seam,
// a thin adapter over ShardedLru (engine/ShardedLru.h). Every synthesis
// run keeps its lock-free local DfaCache and falls through to the shared
// store on a miss, so DFA determinization/minimization is paid once per
// process per distinct regex instead of once per run. Its cost cap weighs
// a DFA by its states + transitions, not its entry count, because
// compiled automata vary in size by orders of magnitude.
//
// Nothing else is cached across runs. Sketch approximations and SMT
// checks are recomputed per run: looking either up cost about as much as
// computing it.
//
// The store is bounded (CacheLimits) with second-chance eviction, so a
// serving process can stay up indefinitely without the memo growth that
// otherwise accumulates one entry per distinct regex ever seen. Eviction
// is transparent to correctness: compilation is deterministic, so an
// evicted entry only costs its recompilation.
//
//===----------------------------------------------------------------------===//

#ifndef REGEL_ENGINE_CACHES_H
#define REGEL_ENGINE_CACHES_H

#include "automata/Compile.h"
#include "engine/ShardedLru.h"

namespace regel::engine {

/// A sharded, thread-safe, LRU-bounded regex -> DFA store.
class ShardedDfaStore : public DfaStore {
public:
  explicit ShardedDfaStore(unsigned NumShards = 16, CacheLimits Limits = {})
      : Lru(NumShards, Limits) {}

  std::shared_ptr<const Dfa> lookup(const RegexPtr &R) override;
  void publish(const RegexPtr &R, std::shared_ptr<const Dfa> D) override;

  size_t size() const { return Lru.size(); }
  void clear() { Lru.clear(); }

  /// Summed cost units (states + transitions) of every cached DFA.
  uint64_t costUnits() const { return Lru.costUnits(); }

  /// Cost of one DFA in store cost units: its states plus the transitions
  /// of its complete table.
  static uint64_t dfaCost(const Dfa &D) {
    return static_cast<uint64_t>(D.numStates()) * (1 + AlphabetSize);
  }

  const CacheLimits &limits() const { return Lru.limits(); }
  uint64_t hits() const { return Lru.hits(); }
  uint64_t misses() const { return Lru.misses(); }
  uint64_t evictions() const { return Lru.evictions(); }

private:
  struct KeyHash {
    size_t operator()(const RegexPtr &R) const {
      return static_cast<size_t>(mix64(R->hash()));
    }
  };
  struct Cost {
    uint64_t operator()(const std::shared_ptr<const Dfa> &D) const {
      return dfaCost(*D);
    }
  };

  ShardedLru<RegexPtr, std::shared_ptr<const Dfa>, KeyHash, RegexPtrEq, Cost>
      Lru;
};

/// The cross-run cache one engine (or several engines, when passed
/// explicitly) shares across all jobs.
struct SharedCaches {
  explicit SharedCaches(unsigned NumShards = 16, CacheLimits DfaLimits = {})
      : Dfa(NumShards, DfaLimits) {}

  ShardedDfaStore Dfa;

  struct ZeroCounters {
    uint64_t hits() const { return 0; }
    uint64_t misses() const { return 0; }
  };
  /// Always 0; kept only because the perfbench harness reads it.
  ZeroCounters Approx;
};

} // namespace regel::engine

#endif // REGEL_ENGINE_CACHES_H
