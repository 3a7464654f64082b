//===- synth/Synthesizer.h - Sketch-guided PBE engine (Fig. 9) --*- C++ -*-===//
//
// Part of the Regel reproduction. The Synthesize worklist algorithm:
// expand open nodes (Fig. 10), prune with over/under-approximations
// (Sec. 4.1), concretize symbolic integers with SMT-guided inference
// (Sec. 4.2), and check concrete candidates against the examples (with the
// subsumption heuristics of Sec. 6).
//
//===----------------------------------------------------------------------===//

#ifndef REGEL_SYNTH_SYNTHESIZER_H
#define REGEL_SYNTH_SYNTHESIZER_H

#include "automata/Compile.h"
#include "synth/Config.h"
#include "synth/PartialRegex.h"

#include <string>
#include <vector>

namespace regel {

/// Counters for one synthesis run (reported by benches and tests).
struct SynthStats {
  uint64_t Pops = 0;
  uint64_t Expansions = 0;
  uint64_t PrunedInfeasible = 0;
  uint64_t ConcreteChecked = 0;
  uint64_t SubsumptionSkips = 0;

  // SMT accounting, split by what actually ran (see InferStats):
  // interval sweeps are the cheap per-node pruning oracle, solves are
  // bounded DFS model searches. (The pre-split "smt_calls" aggregate is
  // gone; read the split fields.)
  uint64_t SmtIntervalEvals = 0;
  uint64_t SmtSolves = 0;
  uint64_t SmtUnsatShortCircuits = 0;
  uint64_t InferIterations = 0;

  // End-to-end DFA resolution for this run: how the run's DFA needs were
  // met. DfaGets = DfaLocalHits + shared-store hits + DfaCompiles; the
  // compile count is what a bounded shared store actually costs, since a
  // re-looked-up evicted entry turns into a compile, not a failure.
  uint64_t DfaGets = 0;      ///< requests against the run-local cache
  uint64_t DfaLocalHits = 0; ///< served without consulting the store
  uint64_t DfaSharedHits = 0; ///< local misses served by the shared store
  uint64_t DfaCompiles = 0;  ///< full compilations this run paid
  double TimeMs = 0;
};

/// Outcome of one synthesis run.
struct SynthResult {
  /// Consistent regexes, in discovery order (up to TopK).
  std::vector<RegexPtr> Solutions;
  SynthStats Stats;
  bool TimedOut = false;   ///< Stopped by the time budget / pop cap.
  bool Cancelled = false;  ///< Stopped through SynthConfig::CancelFlag.
  bool Exhausted = false;  ///< Worklist ran dry.

  bool solved() const { return !Solutions.empty(); }
};

/// The sketch-guided PBE engine. One instance per synthesis task (it owns a
/// DFA cache that persists across candidate checks within the run).
class Synthesizer {
public:
  explicit Synthesizer(SynthConfig Cfg = SynthConfig());

  /// Runs the Fig. 9 algorithm on sketch \p S and examples \p E.
  SynthResult run(const SketchPtr &S, const Examples &E);

  /// The regex->DFA cache (exposed so drivers can share/reset it).
  DfaCache &cache() { return Cache; }

  const SynthConfig &config() const { return Cfg; }

private:
  bool checkConcrete(const RegexPtr &R, const Examples &E, SynthStats &Stats);

  SynthConfig Cfg;
  DfaCache Cache;

  /// Subsumption memos (Sec. 6), reset per run: bodies r for which
  /// Contains(r) failed a positive example, and the smallest k for which
  /// RepeatAtLeast(r, k) failed.
  std::unordered_map<RegexPtr, char, RegexPtrHash, RegexPtrEq> ContainsFailed;
  std::unordered_map<RegexPtr, int, RegexPtrHash, RegexPtrEq> AtLeastFailed;
};

} // namespace regel

#endif // REGEL_SYNTH_SYNTHESIZER_H
