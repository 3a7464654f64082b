//===- perfbench/harness/Report.h - Turning passes into metrics -*- C++ -*-===//
//
// A pass is one fixed unit of work: a list of requests sent to a fresh
// driver or server. These helpers turn a run's passes into the end-to-end
// metrics, the layer table and its reconciliation, and the traffic
// properties the README documents.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

#include "Harness.h"

namespace perfbench {

/// Setup is repeated this many times per run; setup_s is the median.
constexpr unsigned SetupRepeats = 9;

/// A layer's share of the end-to-end total that may stay unattributed
/// before the layer table counts as not reconciled.
constexpr double ReconcileTolerance = 0.05;

/// One pass: its requests, wall and process CPU time, and the engine's
/// counters at the end of the pass.
struct Pass {
  std::vector<Request> Requests;
  double WallMs = 0;
  double CpuMs = 0;
  EngineLayers Layers;
};

/// Records a problem unless every pass did exactly the same search work
/// (pops, expansions, DFA compiles, SMT solves, solved count).
void requireRepeatedCounts(const std::vector<Pass> &Passes, Result &R);

/// Traffic properties of \p P's requests: task count, description-repeat
/// share, example length p50 and max, sketches per query.
void describeTraffic(const Pass &P, Result &R);

/// Checks every answer of every pass and sets the outcome counts and the
/// solved/correct/failed shares.
void reportOutcomes(const std::vector<Pass> &Passes, Result &R);

/// The per-layer metrics and the reconciled layer table of \p Passes
/// (medians over passes). \p ThroughServer adds the generator-lag,
/// server-ack and transport layers.
void reportLayers(const std::vector<Pass> &Passes, bool ThroughServer,
                  Result &R);

/// End-to-end metrics of a closed-loop workload, plus its layers when
/// the run is traced.
void reportClosedLoop(const std::vector<Pass> &Passes, double SetupS,
                      const Options &O, bool ThroughServer, Result &R);

} // namespace perfbench

#endif // PERFBENCH_REPORT_H
