//===- engine/Stats.cpp ---------------------------------------------------===//

#include "engine/Stats.h"

#include <cstdio>

using namespace regel::engine;

std::string StatsSnapshot::toJson() const {
  char Buf[4096];
  std::snprintf(
      Buf, sizeof(Buf),
      "{\"jobs\":{\"submitted\":%llu,\"completed\":%llu,\"solved\":%llu,"
      "\"rejected\":%llu,\"shed_on_arrival\":%llu,\"expired_in_queue\":%llu,"
      "\"deadline_expired\":%llu,"
      "\"residency_expired\":%llu},"
      "\"tasks\":{\"run\":%llu,\"skipped\":%llu,\"stopped\":%llu,"
      "\"stolen\":%llu,\"run_interactive\":%llu,\"run_batch\":%llu,"
      "\"run_background\":%llu},"
      "\"completions_pending\":%llu,"
      "\"solutions\":%llu,"
      "\"synth\":{\"pops\":%llu,\"expansions\":%llu,\"pruned\":%llu,"
      "\"checked\":%llu,\"smt_interval_evals\":%llu,\"smt_solves\":%llu,"
      "\"smt_unsat_short_circuits\":%llu,"
      "\"dfa_gets\":%llu,\"dfa_local_hits\":%llu,"
      "\"dfa_shared_hits\":%llu,"
      "\"dfa_compiles\":%llu,\"total_ms\":%.1f},"
      "\"dfa_store\":{\"hits\":%llu,\"misses\":%llu,\"size\":%llu,"
      "\"cost\":%llu,\"evictions\":%llu},"
      "\"estimator\":{\"interactive_ms\":%.2f,\"batch_ms\":%.2f,"
      "\"background_ms\":%.2f,\"blended_ms\":%.2f,"
      "\"samples_interactive\":%llu,\"samples_batch\":%llu,"
      "\"samples_background\":%llu}}",
      (unsigned long long)JobsSubmitted, (unsigned long long)JobsCompleted,
      (unsigned long long)JobsSolved, (unsigned long long)JobsRejected,
      (unsigned long long)JobsShedOnArrival,
      (unsigned long long)JobsExpiredInQueue,
      (unsigned long long)JobsDeadlineExpired,
      (unsigned long long)JobsResidencyExpired, (unsigned long long)TasksRun,
      (unsigned long long)TasksSkipped, (unsigned long long)TasksStopped,
      (unsigned long long)TasksStolen,
      (unsigned long long)TasksRunInteractive,
      (unsigned long long)TasksRunBatch,
      (unsigned long long)TasksRunBackground,
      (unsigned long long)CompletionsPending,
      (unsigned long long)SolutionsFound,
      (unsigned long long)Pops, (unsigned long long)Expansions,
      (unsigned long long)PrunedInfeasible, (unsigned long long)ConcreteChecked,
      (unsigned long long)SmtIntervalEvals, (unsigned long long)SmtSolves,
      (unsigned long long)SmtUnsatShortCircuits,
      (unsigned long long)DfaGets,
      (unsigned long long)DfaLocalHits, (unsigned long long)DfaSharedHits,
      (unsigned long long)DfaCompiles, SynthMsTotal,
      (unsigned long long)DfaStoreHits, (unsigned long long)DfaStoreMisses,
      (unsigned long long)DfaStoreSize, (unsigned long long)DfaStoreCost,
      (unsigned long long)DfaStoreEvictions,
      EstimatorInteractiveMs, EstimatorBatchMs, EstimatorBackgroundMs,
      EstimatorBlendedMs,
      (unsigned long long)EstimatorSamplesInteractive,
      (unsigned long long)EstimatorSamplesBatch,
      (unsigned long long)EstimatorSamplesBackground);
  return Buf;
}

void StatsSnapshot::merge(const StatsSnapshot &O) {
  JobsSubmitted += O.JobsSubmitted;
  JobsCompleted += O.JobsCompleted;
  JobsSolved += O.JobsSolved;
  JobsRejected += O.JobsRejected;
  JobsShedOnArrival += O.JobsShedOnArrival;
  JobsExpiredInQueue += O.JobsExpiredInQueue;
  JobsDeadlineExpired += O.JobsDeadlineExpired;
  JobsResidencyExpired += O.JobsResidencyExpired;
  TasksRun += O.TasksRun;
  TasksSkipped += O.TasksSkipped;
  TasksStopped += O.TasksStopped;
  TasksStolen += O.TasksStolen;
  TasksRunInteractive += O.TasksRunInteractive;
  TasksRunBatch += O.TasksRunBatch;
  TasksRunBackground += O.TasksRunBackground;
  CompletionsPending += O.CompletionsPending;
  SolutionsFound += O.SolutionsFound;
  Pops += O.Pops;
  Expansions += O.Expansions;
  PrunedInfeasible += O.PrunedInfeasible;
  ConcreteChecked += O.ConcreteChecked;
  SmtIntervalEvals += O.SmtIntervalEvals;
  SmtSolves += O.SmtSolves;
  SmtUnsatShortCircuits += O.SmtUnsatShortCircuits;
  DfaGets += O.DfaGets;
  DfaLocalHits += O.DfaLocalHits;
  DfaSharedHits += O.DfaSharedHits;
  DfaCompiles += O.DfaCompiles;
  SynthMsTotal += O.SynthMsTotal;
  DfaStoreHits += O.DfaStoreHits;
  DfaStoreMisses += O.DfaStoreMisses;
  DfaStoreSize += O.DfaStoreSize;
  DfaStoreCost += O.DfaStoreCost;
  DfaStoreEvictions += O.DfaStoreEvictions;

  // Estimator EWMAs combine sample-weighted; a cold side (negative
  // estimate / zero samples) contributes nothing, so one warm shard's
  // figure survives the merge instead of being averaged toward -1.
  auto Blend = [](double &Ms, uint64_t Samples, double OMs,
                  uint64_t OSamples) {
    const bool Warm = Ms >= 0 && Samples > 0;
    const bool OWarm = OMs >= 0 && OSamples > 0;
    if (!Warm) {
      Ms = OWarm ? OMs : Ms;
      return;
    }
    if (OWarm)
      Ms = (Ms * static_cast<double>(Samples) +
            OMs * static_cast<double>(OSamples)) /
           static_cast<double>(Samples + OSamples);
  };
  Blend(EstimatorInteractiveMs, EstimatorSamplesInteractive,
        O.EstimatorInteractiveMs, O.EstimatorSamplesInteractive);
  Blend(EstimatorBatchMs, EstimatorSamplesBatch, O.EstimatorBatchMs,
        O.EstimatorSamplesBatch);
  Blend(EstimatorBackgroundMs, EstimatorSamplesBackground,
        O.EstimatorBackgroundMs, O.EstimatorSamplesBackground);
  const uint64_t Samples = EstimatorSamplesInteractive +
                           EstimatorSamplesBatch + EstimatorSamplesBackground;
  const uint64_t OSamples = O.EstimatorSamplesInteractive +
                            O.EstimatorSamplesBatch +
                            O.EstimatorSamplesBackground;
  Blend(EstimatorBlendedMs, Samples, O.EstimatorBlendedMs, OSamples);
  EstimatorSamplesInteractive += O.EstimatorSamplesInteractive;
  EstimatorSamplesBatch += O.EstimatorSamplesBatch;
  EstimatorSamplesBackground += O.EstimatorSamplesBackground;
}
