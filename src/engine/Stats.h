//===- engine/Stats.h - Engine-wide counters --------------------*- C++ -*-===//
//
// Part of the Regel reproduction. Aggregates what the engine did across
// all jobs: job/task lifecycle counts, summed synthesis counters, and (via
// Engine::snapshot) the cross-run cache statistics. All counters are
// relaxed atomics — they are monitoring data, not synchronization.
//
// Task accounting is a partition: every per-sketch task the engine fans
// out is counted exactly once, either in TasksRun (it executed a search)
// or in TasksSkipped (cancellation/deadline/shutdown ended it before it
// started). TasksStopped is a sub-count of TasksRun — searches that were
// cancelled mid-run — so TasksRun + TasksSkipped equals the number of
// sketches fanned out, always.
//
//===----------------------------------------------------------------------===//

#ifndef REGEL_ENGINE_STATS_H
#define REGEL_ENGINE_STATS_H

#include "synth/Synthesizer.h"

#include <atomic>
#include <cstdint>
#include <string>

namespace regel::engine {

/// A point-in-time copy of every engine counter (plain values, printable).
struct StatsSnapshot {
  uint64_t JobsSubmitted = 0;
  uint64_t JobsCompleted = 0;
  uint64_t JobsSolved = 0;
  uint64_t JobsRejected = 0; ///< shed at the queue-depth high-water mark
  uint64_t JobsDeadlineExpired = 0;
  uint64_t JobsResidencyExpired = 0; ///< submit-anchored SLA missed

  /// Shed at submit because the service-time estimator judged the
  /// residency budget unmeetable (JobResult::ShedOnArrival). Disjoint
  /// from JobsRejected and from JobsCompleted: every submission lands in
  /// exactly one of {Rejected, ShedOnArrival, Completed}.
  uint64_t JobsShedOnArrival = 0;

  /// Queued jobs the deadline sweep expired before any task started —
  /// a subset of JobsResidencyExpired (the rest expired lazily, at task
  /// start or mid-run).
  uint64_t JobsExpiredInQueue = 0;
  uint64_t TasksRun = 0;     ///< per-sketch tasks that executed a search
  uint64_t TasksSkipped = 0; ///< tasks cancelled before their search began
  uint64_t TasksStopped = 0; ///< subset of TasksRun cancelled mid-search
  uint64_t TasksStolen = 0;  ///< pool-level steals
  // Pool-level runs split by scheduling class (JobRequest::Pri); the sum
  // equals TasksRun + any skip-path tasks, since the pool counts every
  // executed closure whether or not it ran a search.
  uint64_t TasksRunInteractive = 0;
  uint64_t TasksRunBatch = 0;
  uint64_t TasksRunBackground = 0;
  uint64_t CompletionsPending = 0; ///< completion-queue backlog (gauge)
  uint64_t SolutionsFound = 0;

  // Summed SynthStats over every per-sketch run.
  uint64_t Pops = 0;
  uint64_t Expansions = 0;
  uint64_t PrunedInfeasible = 0;
  uint64_t ConcreteChecked = 0;

  // SMT accounting, split by what actually ran (see SynthStats):
  // SmtIntervalEvals are the cheap three-valued sweeps, SmtSolves are
  // bounded DFS model searches.
  uint64_t SmtIntervalEvals = 0;
  uint64_t SmtSolves = 0;
  /// Always 0 (SMT checks are no longer cached); kept only because the
  /// perfbench harness reads it.
  uint64_t SmtCacheHits = 0;
  uint64_t SmtUnsatShortCircuits = 0;

  // DFA resolution is an exact partition: every get is served by the
  // run-local cache (LocalHits, the store is never consulted), by the
  // shared store (SharedHits), or by a compile.
  // DfaGets == DfaLocalHits + DfaSharedHits + DfaCompiles, always.
  uint64_t DfaGets = 0;       ///< DFA requests across all runs
  uint64_t DfaLocalHits = 0;  ///< served run-locally, store not consulted
  uint64_t DfaSharedHits = 0; ///< local misses served by the shared store
  uint64_t DfaCompiles = 0;   ///< compilations actually paid
  double SynthMsTotal = 0;

  /// Share of DFA requests served without compiling (local cache, shared
  /// store, or eviction-then-recompile absorbed elsewhere) — the
  /// end-to-end figure a bounded store is judged by.
  double dfaResolutionRate() const {
    return DfaGets ? 1.0 - static_cast<double>(DfaCompiles) /
                               static_cast<double>(DfaGets)
                   : 0.0;
  }

  // The cross-run DFA store.
  uint64_t DfaStoreHits = 0;
  uint64_t DfaStoreMisses = 0;
  uint64_t DfaStoreSize = 0;
  uint64_t DfaStoreCost = 0; ///< summed DFA cost units (states+transitions)
  uint64_t DfaStoreEvictions = 0;

  // Service-time estimator state (EWMA exec ms per class; negative =
  // cold, no samples yet). What deadline-aware shedding decides on.
  double EstimatorInteractiveMs = -1.0;
  double EstimatorBatchMs = -1.0;
  double EstimatorBackgroundMs = -1.0;
  double EstimatorBlendedMs = -1.0;
  uint64_t EstimatorSamplesInteractive = 0;
  uint64_t EstimatorSamplesBatch = 0;
  uint64_t EstimatorSamplesBackground = 0;

  /// Renders the snapshot as a single JSON object.
  std::string toJson() const;

  /// Folds \p O into this snapshot: counters and sizes sum, estimator
  /// estimates combine sample-weighted (a cold side contributes
  /// nothing). This is how a router presents N shards' snapshots as one
  /// fleet view, taken at call time — merging snapshots, never blobs.
  void merge(const StatsSnapshot &O);
};

/// Thread-safe accumulator behind StatsSnapshot.
class EngineStats {
public:
  void jobSubmitted() { add(JobsSubmitted); }
  void jobRejected() { add(JobsRejected); }
  void jobShedOnArrival() { add(JobsShedOnArrival); }
  void jobExpiredInQueue() { add(JobsExpiredInQueue); }
  void jobCompleted(bool Solved, bool DeadlineExpired,
                    bool ResidencyExpired) {
    add(JobsCompleted);
    if (Solved)
      add(JobsSolved);
    if (DeadlineExpired)
      add(JobsDeadlineExpired);
    if (ResidencyExpired)
      add(JobsResidencyExpired);
  }
  void taskRan() { add(TasksRun); }
  void taskSkipped() { add(TasksSkipped); }
  void taskStopped() { add(TasksStopped); }
  void solutionsFound(uint64_t N) { add(SolutionsFound, N); }

  void addSynth(const SynthStats &S) {
    add(Pops, S.Pops);
    add(Expansions, S.Expansions);
    add(PrunedInfeasible, S.PrunedInfeasible);
    add(ConcreteChecked, S.ConcreteChecked);
    add(SmtIntervalEvals, S.SmtIntervalEvals);
    add(SmtSolves, S.SmtSolves);
    add(SmtUnsatShortCircuits, S.SmtUnsatShortCircuits);
    add(DfaGets, S.DfaGets);
    add(DfaLocalHits, S.DfaLocalHits);
    add(DfaSharedHits, S.DfaSharedHits);
    add(DfaCompiles, S.DfaCompiles);
    SynthMsTotalU.fetch_add(static_cast<uint64_t>(S.TimeMs * 1000.0),
                            std::memory_order_relaxed);
  }

  /// Copies the job/task/synth counters into \p Out (cache and pool fields
  /// are filled by the engine, which owns those objects).
  void fill(StatsSnapshot &Out) const {
    Out.JobsSubmitted = get(JobsSubmitted);
    Out.JobsCompleted = get(JobsCompleted);
    Out.JobsSolved = get(JobsSolved);
    Out.JobsRejected = get(JobsRejected);
    Out.JobsShedOnArrival = get(JobsShedOnArrival);
    Out.JobsExpiredInQueue = get(JobsExpiredInQueue);
    Out.JobsDeadlineExpired = get(JobsDeadlineExpired);
    Out.JobsResidencyExpired = get(JobsResidencyExpired);
    Out.TasksRun = get(TasksRun);
    Out.TasksSkipped = get(TasksSkipped);
    Out.TasksStopped = get(TasksStopped);
    Out.SolutionsFound = get(SolutionsFound);
    Out.Pops = get(Pops);
    Out.Expansions = get(Expansions);
    Out.PrunedInfeasible = get(PrunedInfeasible);
    Out.ConcreteChecked = get(ConcreteChecked);
    Out.SmtIntervalEvals = get(SmtIntervalEvals);
    Out.SmtSolves = get(SmtSolves);
    Out.SmtUnsatShortCircuits = get(SmtUnsatShortCircuits);
    Out.DfaGets = get(DfaGets);
    Out.DfaLocalHits = get(DfaLocalHits);
    Out.DfaSharedHits = get(DfaSharedHits);
    Out.DfaCompiles = get(DfaCompiles);
    Out.SynthMsTotal =
        static_cast<double>(SynthMsTotalU.load(std::memory_order_relaxed)) /
        1000.0;
  }

private:
  using Counter = std::atomic<uint64_t>;

  static void add(Counter &C, uint64_t N = 1) {
    C.fetch_add(N, std::memory_order_relaxed);
  }
  static uint64_t get(const Counter &C) {
    return C.load(std::memory_order_relaxed);
  }

  Counter JobsSubmitted{0}, JobsCompleted{0}, JobsSolved{0}, JobsRejected{0},
      JobsShedOnArrival{0}, JobsExpiredInQueue{0}, JobsDeadlineExpired{0},
      JobsResidencyExpired{0};
  Counter TasksRun{0}, TasksSkipped{0}, TasksStopped{0}, SolutionsFound{0};
  Counter Pops{0}, Expansions{0}, PrunedInfeasible{0}, ConcreteChecked{0},
      SmtIntervalEvals{0}, SmtSolves{0}, SmtUnsatShortCircuits{0}, DfaGets{0},
      DfaLocalHits{0}, DfaSharedHits{0}, DfaCompiles{0};
  Counter SynthMsTotalU{0}; ///< microseconds, to keep the counter integral
};

} // namespace regel::engine

#endif // REGEL_ENGINE_STATS_H
