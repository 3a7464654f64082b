//===- synth/Approximate.h - Over/under-approximation (Figs. 11/12) -*-C++-*-//
//
// Part of the Regel reproduction. Computes, for a partial regex P, a pair
// of concrete regexes (o, u) such that
//   (1) every string matched by some completion of P is matched by o, and
//   (2) every string matched by u is matched by every completion of P.
// A partial regex is infeasible (and can be pruned) when o rejects a
// positive example or u accepts a negative example.
//
//===----------------------------------------------------------------------===//

#ifndef REGEL_SYNTH_APPROXIMATE_H
#define REGEL_SYNTH_APPROXIMATE_H

#include "automata/Compile.h"
#include "synth/PartialRegex.h"

namespace regel {

/// An over/under-approximation pair.
struct Approx {
  RegexPtr Over;
  RegexPtr Under;
};

/// Top element: KleeneStar(<any>) accepts every string.
RegexPtr topRegex();

/// Bottom element: the empty language.
RegexPtr botRegex();

/// Memo a sketch approximation may consult: (sketch, depth, widened) is
/// example-independent, so its approximation can be shared across synthesis
/// runs, jobs, and threads. Implementations must be thread-safe (the
/// concurrent engine provides a sharded one, see engine/Caches.h).
class SketchApproxStore {
public:
  virtual ~SketchApproxStore() = default;

  /// Returns true and fills \p Out when a stored approximation exists.
  virtual bool lookup(const SketchPtr &S, unsigned Depth, bool WithClasses,
                      Approx &Out) = 0;

  /// Offers a freshly computed approximation to the store.
  virtual void publish(const SketchPtr &S, unsigned Depth, bool WithClasses,
                       const Approx &A) = 0;
};

/// Approximates an h-sketch under depth budget \p Depth (Fig. 12);
/// \p WithClasses marks the widened hole variant (its under-approximation
/// collapses to bottom). With \p Memo set, every sketch node consulted
/// during the recursion is served from / published to the store.
Approx approximateSketch(const SketchPtr &S, unsigned Depth, bool WithClasses,
                         SketchApproxStore *Memo = nullptr);

/// Approximates a partial regex (Fig. 11).
Approx approximatePartial(const PNodePtr &N,
                          SketchApproxStore *Memo = nullptr);

/// The Infeasible check of Fig. 9 line 13 with verdict memoization:
/// returns true when the approximations prove a partial regex cannot be
/// completed consistently with the examples. One instance per synthesis
/// run; sibling expansions share most of their approximations, so the
/// per-regex verdicts (over accepts all positives / under rejects all
/// negatives) are cached by structural hash.
class FeasibilityChecker {
public:
  explicit FeasibilityChecker(const Examples &E) : E(E) {}

  /// Attaches a cross-run sketch-approximation memo (may be nullptr).
  void setApproxMemo(SketchApproxStore *M) { Memo = M; }

  /// Routes membership queries for the (heavily repeated) approximation
  /// regexes through \p C instead of the direct matcher; with a shared
  /// backing store attached to the cache, their DFAs amortize across runs.
  void setDfaCache(DfaCache *C) { Cache = C; }

  /// True when \p P is provably inconsistent with the examples.
  bool infeasible(const PartialRegex &P);

  uint64_t checksRun() const { return Checks; }

private:
  bool overAcceptsAllPos(const RegexPtr &Over);
  bool underRejectsAllNeg(const RegexPtr &Under);

  const Examples &E;
  SketchApproxStore *Memo = nullptr;
  DfaCache *Cache = nullptr;
  std::unordered_map<size_t, bool> OverVerdict;
  std::unordered_map<size_t, bool> UnderVerdict;
  uint64_t Checks = 0;
};

} // namespace regel

#endif // REGEL_SYNTH_APPROXIMATE_H
