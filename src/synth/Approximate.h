//===- synth/Approximate.h - Over/under-approximation (Figs. 11/12) -*-C++-*-//
//
// Part of the Regel reproduction. Computes, for a partial regex P, a pair
// of concrete regexes (o, u) such that
//   (1) every string matched by some completion of P is matched by o, and
//   (2) every string matched by u is matched by every completion of P.
// A partial regex is infeasible (and can be pruned) when o rejects a
// positive example or u accepts a negative example.
//
// Both approximations are plain structural recursions, recomputed on
// every feasibility check: consulting a store keyed on the sketch (lock,
// structural hash, deep equality) costs about as much as the recursion.
// What a run does memoize is the verdict of matching an approximation
// regex against the examples (FeasibilityChecker).
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

/// Approximates an h-sketch under depth budget \p Depth (Fig. 12);
/// \p WithClasses marks the widened hole variant (its under-approximation
/// collapses to bottom).
Approx approximateSketch(const SketchPtr &S, unsigned Depth, bool WithClasses);

/// Approximates a partial regex (Fig. 11).
Approx approximatePartial(const PNodePtr &N);

/// The Infeasible check of Fig. 9 line 13 with verdict memoization:
/// returns true when the approximations prove a partial regex cannot be
/// completed consistently with the examples. One instance per synthesis
/// run; sibling expansions share most of their approximations, so the
/// per-regex verdicts (over accepts all positives / under rejects all
/// negatives) are cached by structural hash.
class FeasibilityChecker {
public:
  explicit FeasibilityChecker(const Examples &E) : E(E) {}

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
  DfaCache *Cache = nullptr;
  std::unordered_map<size_t, bool> OverVerdict;
  std::unordered_map<size_t, bool> UnderVerdict;
  uint64_t Checks = 0;
};

} // namespace regel

#endif // REGEL_SYNTH_APPROXIMATE_H
