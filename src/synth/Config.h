//===- synth/Config.h - PBE engine configuration ----------------*- C++ -*-===//
//
// Part of the Regel reproduction. Tuning knobs of the synthesis algorithm,
// including the ablation toggles evaluated in Fig. 18:
//   UseApprox=false, UseSymbolic=false   -> Regel-Enum
//   UseApprox=true,  UseSymbolic=false   -> Regel-Approx
//   UseApprox=true,  UseSymbolic=true    -> Regel (full)
//
// A config also carries the run's borrowed hooks into its host: the
// cancellation flag, the clock, the instrumentation probe and SharedDfa,
// the one cache a run shares with other runs. Everything else a run
// memoizes lives and dies with the run.
//
//===----------------------------------------------------------------------===//

#ifndef REGEL_SYNTH_CONFIG_H
#define REGEL_SYNTH_CONFIG_H

#include "regex/CharClass.h"

#include <atomic>
#include <cstdint>
#include <vector>

namespace regel {

class Clock;
class DfaStore;

namespace obs {
struct SynthProbe;
}

/// Configuration of one Synthesize run.
struct SynthConfig {
  /// Hole depth budget d (Sec. 3.2 remark: a configurable parameter of the
  /// implementation, not part of parser output).
  unsigned HoleDepth = 3;

  /// Upper bound MAX for integer parameters of the Repeat family.
  int MaxInt = 20;

  /// Wall-clock budget in milliseconds (0 = unlimited).
  int64_t BudgetMs = 0;

  /// Stop after this many consistent regexes have been found.
  unsigned TopK = 1;

  /// Enable over/under-approximation pruning (Sec. 4.1).
  bool UseApprox = true;

  /// Enable symbolic integers + SMT-based inference (Sec. 4.2); when false,
  /// integer parameters are enumerated explicitly during expansion.
  bool UseSymbolic = true;

  /// Enable the membership-query subsumption heuristics (Sec. 6).
  bool UseSubsumption = true;

  /// Augment the character-class pool with singleton classes for every
  /// character that occurs in the examples.
  bool AddLiteralsFromExamples = true;

  /// Hard cap on worklist pops (0 = unlimited); a safety valve for the
  /// enumerative ablations.
  uint64_t MaxPops = 0;

  /// DFS node budget per SMT solve call (0 = unlimited). Bounds each of
  /// the per-example and joint satisfiability checks InferConstants runs
  /// before enumerating; a budget-out is treated as "unknown" and the
  /// enumeration proceeds (soundness never depends on a solve finishing).
  uint64_t SmtNodeBudget = 20000;

  /// Cap on InferConstants worklist iterations per symbolic regex.
  uint64_t MaxInferIters = 4000;

  /// Cap on concrete candidates emitted per InferConstants call (ascending
  /// constant order, so small intended constants are found first).
  uint64_t MaxInferResults = 48;

  /// Cooperative cancellation: when set, the run stops (reporting TimedOut)
  /// as soon as the flag becomes true. The engine uses this to cancel
  /// sibling sketch tasks once a job has enough answers.
  const std::atomic<bool> *CancelFlag = nullptr;

  /// Time source for BudgetMs and TimeMs (nullptr = steady clock, owned
  /// by the caller and outliving the run). The engine passes its clock so
  /// a search's wall budget expires on the same — possibly virtual —
  /// timeline as the job's deadline and residency SLA.
  const Clock *TimeSource = nullptr;

  /// Cross-run regex->DFA store consulted/filled by this run's DfaCache
  /// (thread-safe, owned by the engine; nullptr = run-local caching only).
  /// The store may be bounded: publish is keep-or-drop and a previously
  /// stored DFA can be evicted between lookups, in which case the run just
  /// recompiles it — correctness never depends on an entry staying put.
  DfaStore *SharedDfa = nullptr;

  /// Instrumentation sinks (owned by the engine, outliving the run like
  /// TimeSource; nullptr = no instrumentation): DFA-compile and SMT-
  /// inference latency histograms plus the job's span trace. See
  /// obs/Probe.h.
  const obs::SynthProbe *Probe = nullptr;

  /// Character classes available to hole expansion (Fig. 10 rule 2's C).
  /// Empty selects the default pool (num/let/low/cap/any/alphanum/spec).
  std::vector<CharClass> Classes;

  /// The default class pool.
  static std::vector<CharClass> defaultClasses();
};

} // namespace regel

#endif // REGEL_SYNTH_CONFIG_H
