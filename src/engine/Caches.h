//===- engine/Caches.h - Sharded, bounded cross-run caches ------*- C++ -*-===//
//
// Part of the Regel reproduction. Thread-safe implementations of the three
// cache seams the synthesis layers expose, each a thin adapter over one
// ShardedLru (engine/ShardedLru.h):
//
//   * regex -> DFA (automata/Compile's DfaStore): every synthesis run keeps
//     its lock-free local DfaCache and falls through to the shared store on
//     a miss, so DFA determinization/minimization is paid once per process
//     per distinct regex instead of once per run. Its cost cap weighs a
//     DFA by its states + transitions, not its entry count, because
//     compiled automata vary in size by orders of magnitude.
//
//   * (sketch, depth, widened) -> over/under approximation
//     (synth/Approximate's SketchApproxStore): approximations are
//     example-independent, so concurrent jobs over a corpus that reuses
//     sketches share them outright.
//
//   * (canonical formula, domains) -> Sat/Unsat verdict (smt/Solver's
//     VerdictStore): constant-inference queries repeat heavily across
//     jobs that share sketches and example lengths, and hash-consing
//     makes the key O(1) to hash and compare.
//
// All three are bounded (CacheLimits) with second-chance eviction, so a
// serving process can stay up indefinitely without the memo growth that
// otherwise accumulates one entry per distinct regex/sketch/query ever
// seen. Eviction is transparent to correctness: every cached value is a
// deterministic computation, so an evicted entry only costs its
// recomputation.
//
//===----------------------------------------------------------------------===//

#ifndef REGEL_ENGINE_CACHES_H
#define REGEL_ENGINE_CACHES_H

#include "automata/Compile.h"
#include "engine/ShardedLru.h"
#include "smt/Solver.h"
#include "synth/Approximate.h"

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

/// A sharded, thread-safe, LRU-bounded (sketch, depth, widened) ->
/// approximation memo.
class ShardedApproxStore : public SketchApproxStore {
public:
  explicit ShardedApproxStore(unsigned NumShards = 16,
                              CacheLimits Limits = {})
      : Lru(NumShards, Limits) {}

  bool lookup(const SketchPtr &S, unsigned Depth, bool WithClasses,
              Approx &Out) override;
  void publish(const SketchPtr &S, unsigned Depth, bool WithClasses,
               const Approx &A) override;

  size_t size() const { return Lru.size(); }
  void clear() { Lru.clear(); }
  const CacheLimits &limits() const { return Lru.limits(); }
  uint64_t hits() const { return Lru.hits(); }
  uint64_t misses() const { return Lru.misses(); }
  uint64_t evictions() const { return Lru.evictions(); }

  /// The combined key hash (exposed so tests can check shard balance).
  /// Depth and the widened flag are folded through mix64 rather than
  /// XORed in raw: consecutive depths must not perturb only the low bits
  /// that pick the shard.
  static size_t hashKey(const SketchPtr &S, unsigned Depth,
                        bool WithClasses) {
    uint64_t Fields =
        (static_cast<uint64_t>(Depth) << 1) | (WithClasses ? 1u : 0u);
    return static_cast<size_t>(
        mix64(static_cast<uint64_t>(S->hash()) ^ mix64(Fields)));
  }

private:
  struct Key {
    SketchPtr S;
    unsigned Depth;
    bool WithClasses;
  };
  struct KeyHash {
    size_t operator()(const Key &K) const {
      return hashKey(K.S, K.Depth, K.WithClasses);
    }
  };
  struct KeyEq {
    bool operator()(const Key &A, const Key &B) const {
      return A.Depth == B.Depth && A.WithClasses == B.WithClasses &&
             sketchEquals(A.S, B.S);
    }
  };

  ShardedLru<Key, Approx, KeyHash, KeyEq> Lru;
};

/// A sharded, thread-safe, LRU-bounded (canonical formula, domains) ->
/// Sat/Unsat verdict store — the engine-side implementation of
/// smt::VerdictStore. Verdicts are facts (solving is deterministic and
/// a Sat model is the DFS's unique smallest model), so eviction only
/// costs a re-solve, exactly like the DFA store's recompilation.
class ShardedSmtCache : public smt::VerdictStore {
public:
  explicit ShardedSmtCache(unsigned NumShards = 16, CacheLimits Limits = {})
      : Lru(NumShards, Limits) {}

  bool lookup(const smt::FormulaPtr &F,
              const std::vector<smt::Interval> &Domains,
              smt::SolveResult &Out) override;
  void publish(const smt::FormulaPtr &F,
               const std::vector<smt::Interval> &Domains,
               const smt::SolveResult &R) override;

  size_t size() const { return Lru.size(); }
  void clear() { Lru.clear(); }
  const CacheLimits &limits() const { return Lru.limits(); }
  uint64_t hits() const { return Lru.hits(); }
  uint64_t misses() const { return Lru.misses(); }
  uint64_t evictions() const { return Lru.evictions(); }

  /// The combined key hash (exposed so tests can check shard balance).
  /// Hash-consing makes the formula component O(1); the domain vector is
  /// folded through mix64 so shard choice sees every bound.
  static size_t hashKey(const smt::FormulaPtr &F,
                        const std::vector<smt::Interval> &Domains);

private:
  struct Key {
    smt::FormulaPtr F;
    std::vector<smt::Interval> D;
  };
  struct KeyHash {
    size_t operator()(const Key &K) const { return hashKey(K.F, K.D); }
  };
  struct KeyEq {
    bool operator()(const Key &A, const Key &B) const {
      // Interning makes structural formula equality pointer equality.
      return A.F == B.F && A.D == B.D;
    }
  };

  ShardedLru<Key, smt::SolveResult, KeyHash, KeyEq> Lru;
};

/// The caches one engine (or several engines, when passed explicitly)
/// share across all jobs.
struct SharedCaches {
  explicit SharedCaches(unsigned NumShards = 16, CacheLimits DfaLimits = {},
                        CacheLimits ApproxLimits = {},
                        CacheLimits SmtLimits = {})
      : Dfa(NumShards, DfaLimits), Approx(NumShards, ApproxLimits),
        Smt(NumShards, SmtLimits) {}

  ShardedDfaStore Dfa;
  ShardedApproxStore Approx;
  ShardedSmtCache Smt;
};

} // namespace regel::engine

#endif // REGEL_ENGINE_CACHES_H
