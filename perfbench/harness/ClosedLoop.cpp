//===- perfbench/harness/ClosedLoop.cpp - nl_serial, long_examples --------===//
//
// The two closed-loop workloads: one client, one request in flight, on a
// fresh Regel driver with one engine worker per pass. A pass sends a fixed,
// seeded list of requests; a run repeats identical passes until its time is
// up and reports the median over passes, so a burst of noise from a shared
// machine moves one pass, not the result.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "Report.h"

#include "core/Regel.h"
#include "data/DeepRegexSet.h"
#include "data/ExampleGen.h"
#include "regex/Printer.h"
#include "support/Random.h"

#include <set>

using namespace regel;

namespace perfbench {

namespace {

/// One planned request of a closed-loop pass.
struct Planned {
  const data::Benchmark *Task = nullptr;
  Examples E;
  nlp::SemanticParser *Parser = nullptr; ///< null: fixed sketches
  std::vector<SketchPtr> Sketches;       ///< used when Parser is null
};

/// A fresh driver: one engine worker, 25 sketches, cancellation on the
/// first answer, fixed work. Sketches come from the plan, so the driver
/// needs no parser of its own.
std::unique_ptr<Regel> makeDriver() {
  RegelConfig RC;
  RC.NumSketches = 25;
  RC.TopK = 1;
  RC.BudgetMs = NoBudget;
  RC.Synth.MaxPops = MaxPops;
  RC.Threads = 1;
  return std::make_unique<Regel>(nullptr, RC);
}

/// Runs one pass of \p Plan on a fresh driver and measures it.
Pass runClosedPass(const std::vector<Planned> &Plan) {
  std::unique_ptr<Regel> Driver = makeDriver();
  const unsigned NumSketches = Driver->config().NumSketches;

  Pass P;
  P.Requests.reserve(Plan.size());
  double Cpu0 = processCpuMs();
  double Wall0 = nowMs();
  for (const Planned &Q : Plan) {
    Request R;
    R.Task = Q.Task;
    R.E = Q.E;
    double T0 = nowMs();
    std::vector<SketchPtr> Sketches =
        Q.Parser ? sketchesForDescription(*Q.Parser, Q.Task->Description,
                                          NumSketches)
                 : Q.Sketches;
    double T1 = nowMs();
    R.Sketches = static_cast<unsigned>(Sketches.size());
    engine::JobResult JR = Driver->submitSketches(Sketches, Q.E)->wait();
    double T2 = nowMs();
    R.Done = true;
    R.LatencyMs = T2 - T0;
    R.ParseMs = Q.Parser ? T1 - T0 : 0;
    R.QueueMs = JR.QueueMs;
    R.ExecMs = JR.ExecMs;
    R.ServerMs = JR.TotalMs;
    R.Errored = JR.Rejected || JR.ShedOnArrival || JR.ResidencyExpired ||
                JR.DeadlineExpired;
    if (!JR.Answers.empty()) {
      R.Answer = JR.Answers.front().Regex;
      R.Rank = JR.Answers.front().SketchRank;
    }
    P.Requests.push_back(std::move(R));
  }
  P.WallMs = nowMs() - Wall0;
  P.CpuMs = processCpuMs() - Cpu0;
  P.Layers = readEngineLayers(*Driver->engine());
  return P;
}

/// Repeats identical passes until \p Seconds are used (at least one), then
/// checks that the fixed-work counts repeated exactly.
std::vector<Pass> repeatPasses(const std::vector<Planned> &Plan,
                               double Seconds, Result &R) {
  std::vector<Pass> Passes;
  double Start = nowMs();
  std::vector<double> Walls;
  do {
    Passes.push_back(runClosedPass(Plan));
    Walls.push_back(Passes.back().WallMs);
  } while (nowMs() - Start + median(Walls) <= Seconds * 1000.0);
  std::string W;
  for (const Pass &P : Passes)
    W += " " + std::to_string(static_cast<long>(P.WallMs)) + "/" +
         std::to_string(static_cast<long>(P.CpuMs));
  printLine("pass wall/cpu ms:%s", W.c_str());
  requireRepeatedCounts(Passes, R);
  return Passes;
}

} // namespace

bool runNlSerial(const Options &O, Result &R) {
  // Setup: datasets, trained parsers (loaded, not trained) and the
  // request plan. Repeated so setup_s is a median, like every time here.
  const unsigned NumDeepRegex = 40, NumStackOverflow = 12;
  std::vector<data::Benchmark> DR, SO;
  Parsers Ps;
  std::vector<Planned> Plan;
  std::vector<double> SetupS;
  for (unsigned Rep = 0; Rep < SetupRepeats; ++Rep) {
    double T0 = nowMs();
    DR = deepRegexTasks(NumDeepRegex);
    SO = stackOverflowTasks(NumStackOverflow);
    if (!loadParsers(O.WeightsDir, Ps))
      return false;
    Plan.clear();
    for (size_t I : seededOrder(DR.size() + SO.size(), O.Seed)) {
      Planned Q;
      bool IsSO = I >= DR.size();
      Q.Task = IsSO ? &SO[I - DR.size()] : &DR[I];
      Q.E = Q.Task->Initial;
      Q.Parser = IsSO ? Ps.forStackOverflow(I - DR.size()).get()
                      : Ps.DeepRegex.get();
      Plan.push_back(std::move(Q));
    }
    std::unique_ptr<Regel> Driver = makeDriver();
    SetupS.push_back((nowMs() - T0) / 1000.0);
  }

  std::vector<Pass> Passes = repeatPasses(Plan, O.Seconds, R);
  describeTraffic(Passes.front(), R);
  R.Traffic["tasks_stackoverflow"] = static_cast<double>(SO.size());
  reportClosedLoop(Passes, median(SetupS), O, /*ThroughServer=*/false, R);
  return true;
}

bool runLongExamples(const Options &O, Result &R) {
  // Examples are regenerated from each ground truth with a long length
  // cap; tasks whose ground truth no longer validates (or whose language
  // is too small to sample) are dropped. The generator seed is fixed, not
  // the run seed: which long strings get drawn moves a task's cost by an
  // order of magnitude, so a per-run draw of 40 tasks would measure the
  // draw (pass times of 2.4 to 11 s across five seeds), not the program.
  // The run seed orders the tasks.
  const unsigned NumDeepRegex = 30, NumStackOverflow = 10;
  const uint64_t ExampleSeed = 0x10e;
  data::ExampleGenConfig Gen;
  Gen.MaxLen = 128;
  std::vector<data::Benchmark> Tasks;
  std::vector<Planned> Plan;
  std::vector<double> SetupS;
  unsigned Dropped = 0;
  for (unsigned Rep = 0; Rep < SetupRepeats; ++Rep) {
    double T0 = nowMs();
    Tasks = deepRegexTasks(NumDeepRegex);
    for (data::Benchmark &B : stackOverflowTasks(NumStackOverflow))
      Tasks.push_back(std::move(B));
    Rng ExampleRng(ExampleSeed);
    std::vector<data::Benchmark> Kept;
    Dropped = 0;
    for (data::Benchmark &B : Tasks) {
      data::GeneratedExamples G =
          data::generateExamples(B.GroundTruth, ExampleRng, Gen);
      B.Initial = G.Initial;
      B.ExtraPos = G.ExtraPos;
      B.ExtraNeg = G.ExtraNeg;
      if (!G.Ok || !data::validateBenchmark(B).empty()) {
        ++Dropped;
        continue;
      }
      Kept.push_back(std::move(B));
    }
    Tasks = std::move(Kept);
    Plan.clear();
    for (size_t I : seededOrder(Tasks.size(), O.Seed)) {
      Planned Q;
      Q.Task = &Tasks[I];
      Q.E = Tasks[I].Initial;
      // Gold, root-hole and unconstrained sketches, without duplicates
      // (a DeepRegex task's gold sketch is its root-hole sketch).
      std::set<std::string> Seen;
      for (SketchPtr S :
           {Tasks[I].GoldSketch, data::rootHoleSketch(Tasks[I].GroundTruth),
            Sketch::unconstrained()})
        if (S && Seen.insert(printSketch(S)).second)
          Q.Sketches.push_back(std::move(S));
      Plan.push_back(std::move(Q));
    }
    std::unique_ptr<Regel> Driver = makeDriver();
    SetupS.push_back((nowMs() - T0) / 1000.0);
  }
  if (Plan.empty())
    return false;

  std::vector<Pass> Passes = repeatPasses(Plan, O.Seconds, R);
  describeTraffic(Passes.front(), R);
  R.Traffic["tasks_dropped"] = Dropped;
  reportClosedLoop(Passes, median(SetupS), O, /*ThroughServer=*/false, R);
  return true;
}

} // namespace perfbench
