//===- bench/engine_throughput.cpp - Concurrent engine throughput ---------===//
//
// Pushes the whole DeepRegex-style and StackOverflow-style corpora through
// the concurrent synthesis engine as one big batch of jobs and reports
// serving metrics (jobs/sec, p50/p95 latency) as JSON in BENCH_engine.json.
//
// Two passes run over the same corpus — single worker, then multi worker —
// sharing the cross-run DFA store, exactly like a persistent serving
// process that stays warm across requests. The multi-worker pass therefore
// shows the combined effect of the two engine features this bench exists
// to measure: parallel sketch tasks and cross-run DFA reuse.
//
// A final fairness section measures what priority scheduling buys: a
// saturating Batch-class fan-out churns while Interactive-class queries
// arrive at a fixed cadence, once on a FIFO pool and once on the weighted
// priority pool, and the interactive p50/p95 of both modes land in the
// `fairness` rows. Every pass is driven by THIS single thread through the
// engine's completion queue (submit-all, then drain pollCompleted /
// waitCompleted) — no thread is parked per job, which is the async API's
// reason to exist.
//
// Environment knobs:
//   REGEL_BENCH_LIMIT        max benchmarks per dataset (default 25, 0 = all)
//   REGEL_BENCH_BUDGET_MS    per-job deadline (default 1500)
//   REGEL_ENGINE_THREADS     workers in the multi-threaded pass (default 2)
//   REGEL_FAIRNESS_BATCH     batch jobs in the fairness passes
//                            (default 100, 0 skips the section)
//   REGEL_FAIRNESS_BATCH_MS  per-batch-job budget (default 150)
//   REGEL_FAIRNESS_INTERACTIVE  interactive probes per mode (default 20)
//   REGEL_FAIRNESS_INTERVAL_MS  probe cadence (default 100)
//   REGEL_SHED_JOBS          overload-section jobs (default 200, 0 skips)
//   REGEL_SHED_EXEC_MS       per-job execution cost (default 80)
//   REGEL_SHED_SLA_MS        per-job residency SLA (default 250)
//   REGEL_SHED_INTERVAL_MS   arrival pacing (default 2)
//   REGEL_OBS_JOBS           obs-overhead-section jobs (default 2000,
//                            0 skips)
//
// A final overload section (`shedding_overload` in the JSON) runs the
// same SLA-overload twice — deadline-aware shedding off ("lazy", the
// expire-at-task-start baseline) and on ("shed") — and reports how much
// queue residency doomed jobs burned and how fast they learned their
// verdict under each policy.
//
//===----------------------------------------------------------------------===//

#include "common/BenchUtil.h"

#include "data/DeepRegexSet.h"
#include "engine/Engine.h"
#include "obs/Metrics.h"
#include "regex/Parser.h"
#include "service/LocalService.h"
#include "service/RouterService.h"
#include "support/Timer.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

using namespace regel;
using namespace regel::bench;

namespace {

/// The per-benchmark sketch list: the gold (annotated) sketch, the paper's
/// root-operator hole-ification, and the pure-PBE fallback, deduplicated.
std::vector<SketchPtr> sketchesFor(const data::Benchmark &B) {
  std::vector<SketchPtr> Sketches;
  auto addUnique = [&Sketches](const SketchPtr &S) {
    if (!S)
      return;
    for (const SketchPtr &Existing : Sketches)
      if (sketchEquals(Existing, S))
        return;
    Sketches.push_back(S);
  };
  addUnique(B.GoldSketch);
  addUnique(data::rootHoleSketch(B.GroundTruth));
  addUnique(Sketch::unconstrained());
  return Sketches;
}

/// Percentile through the same log-linear histogram the serving metrics
/// registry uses (obs::Histogram, <=25% relative error per bucket), not a
/// second hand-rolled sort-and-index: the bench reports exactly the
/// figures a scraped /metrics exposition would show for this workload.
double percentile(const std::vector<double> &LatenciesMs, double P) {
  obs::Histogram H;
  for (double Ms : LatenciesMs)
    H.recordMs(Ms);
  return static_cast<double>(H.snapshot().percentileUs(P)) / 1000.0;
}

/// One fairness mode: interactive probes at a fixed cadence against a
/// saturating batch fan-out, on a FIFO or priority-scheduled pool.
struct FairnessReport {
  bool Fifo = false;
  size_t BatchJobs = 0;
  size_t InteractiveJobs = 0;
  double InteractiveP50Ms = 0; ///< submit -> completion of the probes
  double InteractiveP95Ms = 0;
  double InteractiveMaxMs = 0;
  size_t BatchCompleted = 0; ///< batch jobs finished before cancelAll
};

FairnessReport runFairnessMode(bool Fifo, unsigned Threads, size_t BatchJobs,
                               int64_t BatchBudgetMs, size_t InterJobs,
                               int64_t IntervalMs) {
  engine::EngineConfig EC;
  EC.Threads = Threads;
  EC.FifoScheduling = Fifo;
  engine::Engine Eng(EC);

  // The batch load: unsolvable (contradictory examples), so every job
  // churns its full budget — a worst-case fan-out hogging the pool.
  Examples Contradiction;
  Contradiction.Pos = {"ab"};
  Contradiction.Neg = {"ab"};
  std::vector<engine::JobPtr> Batch;
  Batch.reserve(BatchJobs);
  for (size_t I = 0; I < BatchJobs; ++I) {
    engine::JobRequest R;
    R.Sketches = {Sketch::unconstrained()};
    R.E = Contradiction;
    R.BudgetMs = BatchBudgetMs;
    R.Pri = engine::Priority::Batch;
    Batch.push_back(Eng.submit(std::move(R)));
  }

  // Interactive probes: a concrete sketch solves in ~a millisecond of
  // search, so the measured latency is queueing — exactly what priority
  // picking is supposed to bound. Latencies land through continuations
  // and this thread blocks once, on the last one — the latch pattern
  // Regel::synthesizeBatch uses.
  RegexPtr Probe = parseRegex("Concat(<cap>,Repeat(<num>,2))");
  Examples ProbeE;
  ProbeE.Pos = {"A12", "Z99"};
  ProbeE.Neg = {"12", "a12"};
  std::mutex M;
  std::condition_variable CV;
  std::vector<double> Latencies;
  for (size_t I = 0; I < InterJobs; ++I) {
    engine::JobRequest R;
    R.Sketches = {Sketch::concrete(Probe)};
    R.E = ProbeE;
    R.BudgetMs = 10000;
    R.Pri = engine::Priority::Interactive;
    Eng.submit(std::move(R))->onComplete(
        [&](const engine::JobResult &JR) {
          std::lock_guard<std::mutex> Guard(M);
          Latencies.push_back(JR.TotalMs);
          if (Latencies.size() == InterJobs)
            CV.notify_all();
        });
    std::this_thread::sleep_for(std::chrono::milliseconds(IntervalMs));
  }
  {
    std::unique_lock<std::mutex> Guard(M);
    CV.wait(Guard, [&] { return Latencies.size() == InterJobs; });
  }

  FairnessReport Rep;
  Rep.Fifo = Fifo;
  Rep.BatchJobs = BatchJobs;
  Rep.InteractiveJobs = InterJobs;
  for (const engine::JobPtr &J : Batch)
    if (J->done())
      ++Rep.BatchCompleted;
  {
    std::lock_guard<std::mutex> Guard(M);
    Rep.InteractiveP50Ms = percentile(Latencies, 0.50);
    Rep.InteractiveP95Ms = percentile(Latencies, 0.95);
    Rep.InteractiveMaxMs =
        Latencies.empty()
            ? 0
            : *std::max_element(Latencies.begin(), Latencies.end());
  }
  // The probes are measured; stop burning CPU on the leftover batch churn.
  Eng.cancelAll();
  for (const engine::JobPtr &J : Batch)
    J->wait();
  return Rep;
}

/// One overload mode: a burst of SLA-carrying jobs far beyond capacity,
/// with deadline-aware shedding on (shed on arrival + eager queue expiry)
/// or off (the old lazy expire-at-task-start behaviour).
struct OverloadReport {
  bool Shedding = false;
  size_t Jobs = 0;
  size_t Solved = 0;
  uint64_t ShedOnArrival = 0;
  uint64_t ExpiredInQueue = 0;
  uint64_t ResidencyExpired = 0;
  double FailedVerdictP50Ms = 0; ///< submit -> verdict for non-solved jobs
  double FailedVerdictP95Ms = 0;
  double FailedQueueMsAvg = 0;   ///< queue residency burned by failed jobs
  double SolvedP95Ms = 0;
  double WallMs = 0;
};

OverloadReport runOverloadMode(bool Shedding, unsigned Threads, size_t Jobs,
                               int64_t ExecMs, int64_t SlaMs,
                               int64_t IntervalMs) {
  // Paced arrivals (not one burst): the shedding estimator learns from
  // completions, so offered load must overlap with service for the
  // comparison to show what shedding does in steady-state overload.
  engine::EngineConfig EC;
  EC.Threads = Threads;
  EC.DeadlineShedding = Shedding;
  engine::Engine Eng(EC);

  // Unsolvable work with a fixed per-job execution cost (the budget), so
  // service time is predictable and the SLA is the binding constraint.
  Examples Contradiction;
  Contradiction.Pos = {"ab"};
  Contradiction.Neg = {"ab"};

  Stopwatch Wall;
  std::vector<engine::JobPtr> Handles;
  Handles.reserve(Jobs);
  for (size_t I = 0; I < Jobs; ++I) {
    engine::JobRequest R;
    R.Sketches = {Sketch::unconstrained()};
    R.E = Contradiction;
    R.BudgetMs = ExecMs;
    R.ResidencyBudgetMs = SlaMs;
    R.EnqueueCompletion = true;
    Handles.push_back(Eng.submit(std::move(R)));
    if (IntervalMs > 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(IntervalMs));
  }
  size_t Done = 0;
  while (Done < Handles.size())
    Done += Eng.waitCompleted(250).size();

  OverloadReport Rep;
  Rep.Shedding = Shedding;
  Rep.Jobs = Jobs;
  Rep.WallMs = Wall.elapsedMs();
  std::vector<double> FailedVerdict, SolvedTotal;
  double FailedQueueSum = 0;
  size_t Failed = 0;
  for (const engine::JobPtr &J : Handles) {
    const engine::JobResult R = J->wait();
    if (R.solved()) {
      ++Rep.Solved;
      SolvedTotal.push_back(R.TotalMs);
      continue;
    }
    ++Failed;
    FailedVerdict.push_back(R.TotalMs);
    FailedQueueSum += R.TotalMs - R.ExecMs;
  }
  engine::StatsSnapshot S = Eng.snapshot();
  Rep.ShedOnArrival = S.JobsShedOnArrival;
  Rep.ExpiredInQueue = S.JobsExpiredInQueue;
  Rep.ResidencyExpired = S.JobsResidencyExpired;
  Rep.FailedVerdictP50Ms = percentile(FailedVerdict, 0.50);
  Rep.FailedVerdictP95Ms = percentile(FailedVerdict, 0.95);
  Rep.FailedQueueMsAvg = Failed ? FailedQueueSum / double(Failed) : 0;
  Rep.SolvedP95Ms = percentile(SolvedTotal, 0.95);
  return Rep;
}

/// One router configuration driven through the SynthService seam: the
/// whole corpus submitted as one saturating batch over N in-process
/// backends (fresh engines + caches each), drained through the router's
/// completion stream.
struct RouterReport {
  unsigned Backends = 0;
  unsigned ThreadsPer = 0;
  size_t Jobs = 0;
  size_t Solved = 0;
  double WallMs = 0;
  double JobsPerSec = 0;
  double P50Ms = 0;
  double P95Ms = 0;
  uint64_t Spilled = 0;
  std::vector<uint64_t> PerBackend;
};

RouterReport runRouterPass(unsigned Backends, unsigned ThreadsPer,
                           const std::vector<data::Benchmark> &Corpus,
                           int64_t BudgetMs) {
  std::vector<std::shared_ptr<service::SynthService>> Bk;
  for (unsigned I = 0; I < Backends; ++I) {
    engine::EngineConfig EC;
    EC.Threads = ThreadsPer;
    Bk.push_back(std::make_shared<service::LocalService>(
        std::make_shared<engine::Engine>(EC)));
  }
  service::RouterService Router(std::move(Bk));

  Stopwatch Wall;
  std::vector<service::Ticket> Tickets;
  Tickets.reserve(Corpus.size());
  for (const data::Benchmark &B : Corpus) {
    engine::JobRequest R;
    R.Sketches = sketchesFor(B);
    R.E = B.Initial;
    R.TopK = 1;
    R.BudgetMs = BudgetMs;
    R.Tag = B.Id;
    Tickets.push_back(Router.submit(std::move(R)));
  }
  RouterReport Rep;
  Rep.Backends = Backends;
  Rep.ThreadsPer = ThreadsPer;
  Rep.Jobs = Tickets.size();
  std::vector<double> Latencies;
  Latencies.reserve(Tickets.size());
  size_t Done = 0;
  while (Done < Tickets.size())
    for (service::Completion &C : Router.waitCompleted(250)) {
      Latencies.push_back(C.Result.TotalMs);
      if (C.Result.solved())
        ++Rep.Solved;
      ++Done;
    }
  Rep.WallMs = Wall.elapsedMs();
  Rep.JobsPerSec =
      Rep.WallMs > 0 ? static_cast<double>(Rep.Jobs) * 1000.0 / Rep.WallMs
                     : 0;
  Rep.P50Ms = percentile(Latencies, 0.50);
  Rep.P95Ms = percentile(Latencies, 0.95);
  service::RouterStats RS = Router.stats();
  Rep.Spilled = RS.Spilled;
  Rep.PerBackend = RS.PerBackend;
  return Rep;
}

void appendRouterJson(std::string &Out, const RouterReport &R) {
  char Buf[512];
  std::snprintf(Buf, sizeof(Buf),
                "    {\"backends\":%u,\"threads_per_backend\":%u,"
                "\"total_workers\":%u,\"jobs\":%zu,\"solved\":%zu,"
                "\"wall_ms\":%.1f,\"jobs_per_sec\":%.3f,"
                "\"p50_ms\":%.1f,\"p95_ms\":%.1f,\"spilled\":%llu,"
                "\"routed_per_backend\":[",
                R.Backends, R.ThreadsPer, R.Backends * R.ThreadsPer, R.Jobs,
                R.Solved, R.WallMs, R.JobsPerSec, R.P50Ms, R.P95Ms,
                (unsigned long long)R.Spilled);
  Out += Buf;
  for (size_t I = 0; I < R.PerBackend.size(); ++I) {
    if (I)
      Out += ',';
    Out += std::to_string(R.PerBackend[I]);
  }
  Out += "]}";
}

/// Jobs/sec over a stream of trivial concrete-sketch jobs with the
/// observability layer (span tracing + registry histograms) on or off.
/// Trivial jobs put instrumentation at its maximum relative cost — real
/// synthesis work amortizes it much further — so this is the worst-case
/// overhead figure.
double runObsMode(bool Observability, unsigned Threads, size_t Jobs) {
  engine::EngineConfig EC;
  EC.Threads = Threads;
  EC.Observability = Observability;
  engine::Engine Eng(EC);

  RegexPtr Probe = parseRegex("Concat(<cap>,Repeat(<num>,2))");
  Examples E;
  E.Pos = {"A12", "Z99"};
  E.Neg = {"12", "a12"};

  Stopwatch Wall;
  std::vector<engine::JobPtr> Handles;
  Handles.reserve(Jobs);
  for (size_t I = 0; I < Jobs; ++I) {
    engine::JobRequest R;
    R.Sketches = {Sketch::concrete(Probe)};
    R.E = E;
    R.BudgetMs = 10000;
    R.EnqueueCompletion = true;
    Handles.push_back(Eng.submit(std::move(R)));
  }
  size_t Done = 0;
  while (Done < Handles.size())
    Done += Eng.waitCompleted(250).size();
  const double WallMs = Wall.elapsedMs();
  return WallMs > 0 ? static_cast<double>(Jobs) * 1000.0 / WallMs : 0;
}

struct PassReport {
  unsigned Threads = 0;
  size_t Jobs = 0;
  size_t Solved = 0;
  double WallMs = 0;
  double JobsPerSec = 0;
  double P50Ms = 0;     ///< submit -> done (includes queue wait)
  double P90Ms = 0;
  double P95Ms = 0;
  double P99Ms = 0;
  double ExecP50Ms = 0; ///< first task start -> done
  double ExecP95Ms = 0;
  double DfaHitRate = 0; ///< shared-store hit rate of THIS pass (delta)
  double DfaResolutionRate = 0; ///< end-to-end: 1 - compiles/gets
  engine::StatsSnapshot Stats;
  /// The pass engine's full Prometheus-style exposition, captured before
  /// the engine dies (one pass's text is written out as
  /// BENCH_metrics.prom for the CI artifact).
  std::string MetricsText;
};

PassReport runPass(unsigned Threads,
                   const std::shared_ptr<engine::SharedCaches> &Caches,
                   const std::vector<data::Benchmark> &Corpus,
                   int64_t BudgetMs) {
  engine::EngineConfig EC;
  EC.Threads = Threads;
  EC.Caches = Caches;
  engine::Engine Eng(EC);

  std::vector<engine::JobRequest> Requests;
  Requests.reserve(Corpus.size());
  for (const data::Benchmark &B : Corpus) {
    engine::JobRequest R;
    R.Sketches = sketchesFor(B);
    R.E = B.Initial;
    R.TopK = 1;
    R.BudgetMs = BudgetMs;
    R.Tag = B.Id;
    Requests.push_back(std::move(R));
  }

  // The caches outlive the engine, so per-pass hit rates need deltas.
  const uint64_t DfaHits0 = Caches->Dfa.hits();
  const uint64_t DfaMisses0 = Caches->Dfa.misses();

  Stopwatch Wall;
  // Submit the whole corpus, then drain it through the completion queue:
  // one thread drives every in-flight job, no wait() parked per job.
  std::vector<engine::JobResult> Results(Requests.size());
  std::unordered_map<const engine::SynthJob *, size_t> Slot;
  std::vector<engine::JobPtr> Jobs;
  Jobs.reserve(Requests.size());
  Slot.reserve(Requests.size());
  for (size_t I = 0; I < Requests.size(); ++I) {
    Requests[I].EnqueueCompletion = true;
    engine::JobPtr J = Eng.submit(std::move(Requests[I]));
    Slot[J.get()] = I;
    Jobs.push_back(std::move(J));
  }
  size_t Done = 0;
  while (Done < Jobs.size()) {
    for (const engine::JobPtr &J : Eng.waitCompleted(250)) {
      Results[Slot[J.get()]] = J->wait(); // complete: returns immediately
      ++Done;
    }
  }
  PassReport Rep;
  Rep.Threads = Threads;
  Rep.Jobs = Results.size();
  Rep.WallMs = Wall.elapsedMs();
  std::vector<double> Latencies, ExecLatencies;
  Latencies.reserve(Results.size());
  ExecLatencies.reserve(Results.size());
  for (const engine::JobResult &R : Results) {
    Latencies.push_back(R.TotalMs);
    ExecLatencies.push_back(R.ExecMs);
    if (R.solved())
      ++Rep.Solved;
  }
  Rep.JobsPerSec =
      Rep.WallMs > 0 ? static_cast<double>(Rep.Jobs) * 1000.0 / Rep.WallMs : 0;
  Rep.P50Ms = percentile(Latencies, 0.50);
  Rep.P90Ms = percentile(Latencies, 0.90);
  Rep.P95Ms = percentile(Latencies, 0.95);
  Rep.P99Ms = percentile(Latencies, 0.99);
  Rep.ExecP50Ms = percentile(ExecLatencies, 0.50);
  Rep.ExecP95Ms = percentile(ExecLatencies, 0.95);
  Rep.Stats = Eng.snapshot();
  Rep.MetricsText = Eng.metricsText();
  const uint64_t DfaHits = Caches->Dfa.hits() - DfaHits0;
  const uint64_t DfaLookups = DfaHits + (Caches->Dfa.misses() - DfaMisses0);
  Rep.DfaHitRate = DfaLookups
                       ? static_cast<double>(DfaHits) /
                             static_cast<double>(DfaLookups)
                       : 0.0;
  // Engine stats are per-engine and each pass gets a fresh engine, so the
  // snapshot's synth counters are already pass-local.
  Rep.DfaResolutionRate = Rep.Stats.dfaResolutionRate();
  return Rep;
}

void appendPassJson(std::string &Out, const PassReport &R) {
  char Buf[512];
  std::snprintf(Buf, sizeof(Buf),
                "    {\"threads\":%u,\"jobs\":%zu,\"solved\":%zu,"
                "\"wall_ms\":%.1f,\"jobs_per_sec\":%.3f,"
                "\"p50_ms\":%.1f,\"p90_ms\":%.1f,\"p95_ms\":%.1f,"
                "\"p99_ms\":%.1f,"
                "\"exec_p50_ms\":%.1f,\"exec_p95_ms\":%.1f,"
                "\"dfa_store_hit_rate\":%.3f,"
                "\"dfa_resolution_rate\":%.4f,\n"
                "     \"engine\":",
                R.Threads, R.Jobs, R.Solved, R.WallMs, R.JobsPerSec, R.P50Ms,
                R.P90Ms, R.P95Ms, R.P99Ms, R.ExecP50Ms, R.ExecP95Ms,
                R.DfaHitRate, R.DfaResolutionRate);
  Out += Buf;
  Out += R.Stats.toJson();
  Out += "}";
}

} // namespace

int main() {
  const unsigned Limit =
      static_cast<unsigned>(envInt("REGEL_BENCH_LIMIT", 25));
  const int64_t BudgetMs = envInt("REGEL_BENCH_BUDGET_MS", 1500);
  const unsigned Threads = std::max<unsigned>(
      2, static_cast<unsigned>(envInt("REGEL_ENGINE_THREADS", 2)));

  std::printf("loading corpora...\n");
  std::vector<data::Benchmark> Corpus = limited(data::deepRegexSet(), Limit);
  const size_t DeepCount = Corpus.size();
  std::vector<data::Benchmark> So = limited(data::stackOverflowSet(), Limit);
  const size_t SoCount = So.size();
  Corpus.insert(Corpus.end(), So.begin(), So.end());
  std::printf("corpus: %zu deepregex + %zu stackoverflow = %zu jobs/pass\n",
              DeepCount, SoCount, Corpus.size());

  // Both passes share the cross-run DFA store (a persistent server is
  // always warm); the single-worker pass runs first and pays the
  // compilations.
  auto Caches = std::make_shared<engine::SharedCaches>(16);

  std::printf("pass 1: 1 worker (cold caches)...\n");
  PassReport Single = runPass(1, Caches, Corpus, BudgetMs);
  std::printf("  %.2f jobs/sec, p50 %.0f ms, p95 %.0f ms, %zu/%zu solved\n",
              Single.JobsPerSec, Single.P50Ms, Single.P95Ms, Single.Solved,
              Single.Jobs);

  std::printf("pass 2: %u workers (warm caches)...\n", Threads);
  PassReport Multi = runPass(Threads, Caches, Corpus, BudgetMs);
  std::printf("  %.2f jobs/sec, p50 %.0f ms, p95 %.0f ms, %zu/%zu solved\n",
              Multi.JobsPerSec, Multi.P50Ms, Multi.P95Ms, Multi.Solved,
              Multi.Jobs);

  std::string Json = "{\n  \"bench\": \"engine_throughput\",\n";
  char Buf[512];
  std::snprintf(Buf, sizeof(Buf),
                "  \"corpus\": {\"deepregex\": %zu, \"stackoverflow\": %zu},\n"
                "  \"budget_ms\": %lld,\n  \"passes\": [\n",
                DeepCount, SoCount, static_cast<long long>(BudgetMs));
  Json += Buf;
  appendPassJson(Json, Single);
  Json += ",\n";
  appendPassJson(Json, Multi);
  Json += "\n  ],\n";
  std::snprintf(Buf, sizeof(Buf),
                "  \"speedup_multi_over_single\": %.3f",
                Single.JobsPerSec > 0 ? Multi.JobsPerSec / Single.JobsPerSec
                                      : 0.0);
  Json += Buf;

  // Fairness: interactive probes against a saturating batch fan-out, FIFO
  // vs priority scheduling. The interesting figure is interactive p95 —
  // FIFO queues the probe behind the whole batch backlog, the weighted
  // priority pool runs it at the next pop.
  const size_t FairBatch =
      static_cast<size_t>(envInt("REGEL_FAIRNESS_BATCH", 100));
  const int64_t FairBatchMs = envInt("REGEL_FAIRNESS_BATCH_MS", 150);
  const size_t FairInter =
      static_cast<size_t>(envInt("REGEL_FAIRNESS_INTERACTIVE", 20));
  const int64_t FairIntervalMs = envInt("REGEL_FAIRNESS_INTERVAL_MS", 100);
  if (FairBatch > 0 && FairInter > 0) {
    std::printf("fairness: %zu batch jobs (%lld ms each) vs %zu interactive "
                "probes every %lld ms...\n",
                FairBatch, (long long)FairBatchMs, FairInter,
                (long long)FairIntervalMs);
    FairnessReport Fifo = runFairnessMode(/*Fifo=*/true, Threads, FairBatch,
                                          FairBatchMs, FairInter,
                                          FairIntervalMs);
    std::printf("  fifo:     interactive p50 %.0f ms, p95 %.0f ms, max %.0f "
                "ms\n",
                Fifo.InteractiveP50Ms, Fifo.InteractiveP95Ms,
                Fifo.InteractiveMaxMs);
    FairnessReport Prio = runFairnessMode(/*Fifo=*/false, Threads, FairBatch,
                                          FairBatchMs, FairInter,
                                          FairIntervalMs);
    std::printf("  priority: interactive p50 %.0f ms, p95 %.0f ms, max %.0f "
                "ms\n",
                Prio.InteractiveP50Ms, Prio.InteractiveP95Ms,
                Prio.InteractiveMaxMs);
    const double Improvement = Prio.InteractiveP95Ms > 0
                                   ? Fifo.InteractiveP95Ms /
                                         Prio.InteractiveP95Ms
                                   : 0.0;
    std::printf("  p95 improvement: %.1fx\n", Improvement);
    if (Improvement < 3.0)
      std::printf("WARNING: priority scheduling under 3x p95 improvement\n");

    auto AppendMode = [&Json](const FairnessReport &R) {
      char B[512];
      std::snprintf(B, sizeof(B),
                    "    {\"mode\":\"%s\",\"interactive_p50_ms\":%.1f,"
                    "\"interactive_p95_ms\":%.1f,"
                    "\"interactive_max_ms\":%.1f,"
                    "\"batch_completed\":%zu}",
                    R.Fifo ? "fifo" : "priority", R.InteractiveP50Ms,
                    R.InteractiveP95Ms, R.InteractiveMaxMs,
                    R.BatchCompleted);
      Json += B;
    };
    std::snprintf(Buf, sizeof(Buf),
                  ",\n  \"fairness\": {\n"
                  "    \"batch_jobs\": %zu,\n"
                  "    \"batch_budget_ms\": %lld,\n"
                  "    \"interactive_jobs\": %zu,\n"
                  "    \"interval_ms\": %lld,\n"
                  "    \"threads\": %u,\n"
                  "    \"modes\": [\n",
                  FairBatch, (long long)FairBatchMs, FairInter,
                  (long long)FairIntervalMs, Threads);
    Json += Buf;
    AppendMode(Fifo);
    Json += ",\n";
    AppendMode(Prio);
    std::snprintf(Buf, sizeof(Buf),
                  "\n    ],\n    \"interactive_p95_improvement\": %.2f\n  }",
                  Improvement);
    Json += Buf;
  }
  // Overload: shed-vs-lazy-expiry. Arrivals far beyond capacity, every
  // job carrying a residency SLA; "lazy" is the pre-shedding engine
  // (expiry only at task start), "shed" adds reject-on-arrival plus the
  // eager deadline sweep. The interesting figures: queue residency burned
  // by jobs that were never going to make it, and how fast a doomed
  // client learns its verdict.
  const size_t ShedJobs = static_cast<size_t>(envInt("REGEL_SHED_JOBS", 200));
  const int64_t ShedExecMs = envInt("REGEL_SHED_EXEC_MS", 80);
  const int64_t ShedSlaMs = envInt("REGEL_SHED_SLA_MS", 250);
  const int64_t ShedIntervalMs = envInt("REGEL_SHED_INTERVAL_MS", 2);
  if (ShedJobs > 0) {
    std::printf("overload: %zu jobs (%lld ms exec, %lld ms sla, every "
                "%lld ms) on %u workers...\n",
                ShedJobs, (long long)ShedExecMs, (long long)ShedSlaMs,
                (long long)ShedIntervalMs, Threads);
    OverloadReport Lazy = runOverloadMode(/*Shedding=*/false, Threads,
                                          ShedJobs, ShedExecMs, ShedSlaMs,
                                          ShedIntervalMs);
    std::printf("  lazy: %llu expired (verdict p50 %.0f ms, p95 %.0f ms; "
                "avg queue burned %.0f ms)\n",
                (unsigned long long)Lazy.ResidencyExpired,
                Lazy.FailedVerdictP50Ms, Lazy.FailedVerdictP95Ms,
                Lazy.FailedQueueMsAvg);
    OverloadReport Shed = runOverloadMode(/*Shedding=*/true, Threads,
                                          ShedJobs, ShedExecMs, ShedSlaMs,
                                          ShedIntervalMs);
    std::printf("  shed: %llu shed on arrival + %llu expired in queue + "
                "%llu lazy-expired (verdict p50 %.0f ms, p95 %.0f ms; avg "
                "queue burned %.0f ms)\n",
                (unsigned long long)Shed.ShedOnArrival,
                (unsigned long long)Shed.ExpiredInQueue,
                (unsigned long long)(Shed.ResidencyExpired -
                                     Shed.ExpiredInQueue),
                Shed.FailedVerdictP50Ms, Shed.FailedVerdictP95Ms,
                Shed.FailedQueueMsAvg);
    const double QueueSaved =
        Lazy.FailedQueueMsAvg - Shed.FailedQueueMsAvg;
    std::printf("  avg queue wait saved per doomed job: %.0f ms\n",
                QueueSaved);
    if (Shed.ShedOnArrival + Shed.ExpiredInQueue == 0)
      std::printf("WARNING: shedding mode never shed or eagerly expired\n");

    auto AppendOverload = [&Json](const OverloadReport &R) {
      char B[512];
      std::snprintf(
          B, sizeof(B),
          "    {\"mode\":\"%s\",\"jobs\":%zu,\"solved\":%zu,"
          "\"shed_on_arrival\":%llu,\"expired_in_queue\":%llu,"
          "\"residency_expired\":%llu,"
          "\"failed_verdict_p50_ms\":%.1f,\"failed_verdict_p95_ms\":%.1f,"
          "\"failed_queue_ms_avg\":%.1f,\"solved_p95_ms\":%.1f,"
          "\"wall_ms\":%.1f}",
          R.Shedding ? "shed" : "lazy", R.Jobs, R.Solved,
          (unsigned long long)R.ShedOnArrival,
          (unsigned long long)R.ExpiredInQueue,
          (unsigned long long)R.ResidencyExpired, R.FailedVerdictP50Ms,
          R.FailedVerdictP95Ms, R.FailedQueueMsAvg, R.SolvedP95Ms,
          R.WallMs);
      Json += B;
    };
    std::snprintf(Buf, sizeof(Buf),
                  ",\n  \"shedding_overload\": {\n"
                  "    \"jobs\": %zu,\n    \"exec_ms\": %lld,\n"
                  "    \"sla_ms\": %lld,\n    \"interval_ms\": %lld,\n"
                  "    \"threads\": %u,\n    \"modes\": [\n",
                  ShedJobs, (long long)ShedExecMs, (long long)ShedSlaMs,
                  (long long)ShedIntervalMs, Threads);
    Json += Buf;
    AppendOverload(Lazy);
    Json += ",\n";
    AppendOverload(Shed);
    std::snprintf(Buf, sizeof(Buf),
                  "\n    ],\n    \"avg_queue_ms_saved_per_failed_job\": "
                  "%.1f\n  }",
                  QueueSaved);
    Json += Buf;
  }
  // Router scaling: the saturating corpus batch through the service
  // seam's RouterService — 1 backend at the full worker count, 2 backends
  // splitting the same worker total (equal-resource comparison: what
  // sharding costs/buys with fixed compute), and 2 backends at the full
  // count each (the scale-out row: what adding a shard buys when the
  // hardware is there). Affinity hashing keeps each benchmark's sketch
  // traffic on one shard's caches; `spilled` counts load-balancing
  // overrides.
  const bool RunRouter = envInt("REGEL_ROUTER", 1) != 0;
  if (RunRouter) {
    const unsigned HalfThreads = std::max(1u, Threads / 2);
    std::printf("router: corpus batch over 1x%u / 2x%u / 2x%u local "
                "backends...\n",
                Threads, HalfThreads, Threads);
    RouterReport R1 = runRouterPass(1, Threads, Corpus, BudgetMs);
    std::printf("  1 backend  x %u workers: %.2f jobs/sec (p95 %.0f ms)\n",
                Threads, R1.JobsPerSec, R1.P95Ms);
    RouterReport R2eq = runRouterPass(2, HalfThreads, Corpus, BudgetMs);
    std::printf("  2 backends x %u workers: %.2f jobs/sec (p95 %.0f ms, "
                "%llu spilled, split %llu/%llu)\n",
                HalfThreads, R2eq.JobsPerSec, R2eq.P95Ms,
                (unsigned long long)R2eq.Spilled,
                (unsigned long long)R2eq.PerBackend[0],
                (unsigned long long)R2eq.PerBackend[1]);
    RouterReport R2x = runRouterPass(2, Threads, Corpus, BudgetMs);
    std::printf("  2 backends x %u workers: %.2f jobs/sec (p95 %.0f ms)\n",
                Threads, R2x.JobsPerSec, R2x.P95Ms);
    const double EqualSpeedup =
        R1.JobsPerSec > 0 ? R2eq.JobsPerSec / R1.JobsPerSec : 0;
    const double ScaledSpeedup =
        R1.JobsPerSec > 0 ? R2x.JobsPerSec / R1.JobsPerSec : 0;
    std::printf("  equal-worker speedup %.2fx, scaled (2x workers) "
                "%.2fx\n",
                EqualSpeedup, ScaledSpeedup);
    if (EqualSpeedup < 1.5)
      std::printf("note: in-process backends share one machine, so at "
                  "equal total workers the router adds isolation, not "
                  "compute — the scaled row (and N processes via "
                  "RemoteService) is where throughput multiplies\n");

    Json += ",\n  \"router_scaling\": {\n    \"modes\": [\n";
    appendRouterJson(Json, R1);
    Json += ",\n";
    appendRouterJson(Json, R2eq);
    Json += ",\n";
    appendRouterJson(Json, R2x);
    std::snprintf(Buf, sizeof(Buf),
                  "\n    ],\n    \"equal_worker_speedup\": %.3f,\n"
                  "    \"scaled_speedup\": %.3f\n  }",
                  EqualSpeedup, ScaledSpeedup);
    Json += Buf;
  }
  // Observability overhead: the same trivial job stream with the metrics
  // registry + span tracing enabled vs compiled in but switched off.
  const size_t ObsJobs = static_cast<size_t>(envInt("REGEL_OBS_JOBS", 2000));
  if (ObsJobs > 0) {
    std::printf("observability overhead: %zu trivial jobs on %u workers, "
                "instrumentation on vs off...\n",
                ObsJobs, Threads);
    const double OffJps = runObsMode(/*Observability=*/false, Threads, ObsJobs);
    const double OnJps = runObsMode(/*Observability=*/true, Threads, ObsJobs);
    const double OverheadPct =
        OffJps > 0 ? (OffJps - OnJps) / OffJps * 100.0 : 0;
    std::printf("  on %.0f jobs/sec, off %.0f jobs/sec, overhead %.1f%%\n",
                OnJps, OffJps, OverheadPct);
    std::snprintf(Buf, sizeof(Buf),
                  ",\n  \"obs_overhead\": {\n    \"jobs\": %zu,\n"
                  "    \"threads\": %u,\n"
                  "    \"jobs_per_sec_on\": %.1f,\n"
                  "    \"jobs_per_sec_off\": %.1f,\n"
                  "    \"overhead_pct\": %.2f\n  }",
                  ObsJobs, Threads, OnJps, OffJps, OverheadPct);
    Json += Buf;
  }
  Json += "\n}\n";

  const char *OutPath = "BENCH_engine.json";
  if (FILE *F = std::fopen(OutPath, "w")) {
    std::fputs(Json.c_str(), F);
    std::fclose(F);
    std::printf("wrote %s\n", OutPath);
  } else {
    std::fprintf(stderr, "cannot write %s\n", OutPath);
    return 1;
  }

  // The warm multi-worker pass's full exposition, as a sample scrape for
  // the CI artifact (and for eyeballing the metric catalog).
  const char *PromPath = "BENCH_metrics.prom";
  if (FILE *F = std::fopen(PromPath, "w")) {
    std::fputs(Multi.MetricsText.c_str(), F);
    std::fclose(F);
    std::printf("wrote %s (%zu bytes)\n", PromPath, Multi.MetricsText.size());
  } else {
    std::fprintf(stderr, "cannot write %s\n", PromPath);
    return 1;
  }

  if (Multi.JobsPerSec < Single.JobsPerSec)
    std::printf("WARNING: multi-thread pass slower than single-thread\n");
  return 0;
}
