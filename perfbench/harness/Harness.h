//===- perfbench/harness/Harness.h - Shared benchmark machinery -*- C++ -*-===//
//
// The end-to-end benchmark's building blocks: workload options, the
// result record every workload fills, request records with their layer
// times, the answer check, engine-counter reading, and the statistics the
// report is built from. The harness only calls public functions of the
// regel library; every per-layer number comes either from a span the
// harness records around a library call or from the metrics the engine
// already exports (Engine::snapshot / Engine::metricsText).
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include "data/Benchmark.h"
#include "engine/Engine.h"
#include "nlp/SemanticParser.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line options of one run.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string WeightsDir;
};

/// Fixed-work settings shared by the workloads: a search stops after
/// MaxPops worklist pops, never on the wall clock, so the same inputs do
/// the same work on any machine.
constexpr uint64_t MaxPops = 50;
constexpr int64_t NoBudget = 0;

/// Milliseconds on the steady clock since an arbitrary epoch.
double nowMs();
/// User + system CPU time of the whole process, in ms.
double processCpuMs();
/// Peak resident set size of the process (VmHWM), in MiB.
double peakRssMb();

/// The Harrell-Davis estimate of quantile \p Q (0 < Q < 1) of a sample;
/// 0 for an empty sample.
double quantile(std::vector<double> V, double Q);
double median(std::vector<double> V);
double sum(const std::vector<double> &V);

/// One measured value with its unit.
struct Metric {
  double Value = 0;
  std::string Unit;
};

/// Everything a run reports. run.py picks the metrics BENCHMARK.json
/// declares for the run's mode out of Metrics.
struct Result {
  std::string Workload;
  uint64_t Seed = 0;
  bool Trace = false;
  std::map<std::string, Metric> Metrics;
  std::map<std::string, double> Traffic; ///< input properties, see README
  uint64_t Attempted = 0;
  uint64_t Succeeded = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Problems; ///< why the run is not correct

  void set(const std::string &Name, double Value, const std::string &Unit) {
    Metrics[Name] = {Value, Unit};
  }
  bool correct() const { return Problems.empty(); }
  /// The result as one JSON object on one line.
  std::string json() const;
};

/// One request and what the harness measured about it.
struct Request {
  const regel::data::Benchmark *Task = nullptr;
  regel::Examples E;
  unsigned Sketches = 0; ///< sketch list length submitted

  // Filled when the request completes.
  bool Done = false;
  bool Errored = false; ///< rejected, shed, expired, busy or refused
  double LatencyMs = 0;   ///< end to end, as the client saw it
  double ParseMs = 0;     ///< NL description -> sketch list
  double QueueMs = 0;     ///< engine: submit -> first task started
  double ExecMs = 0;      ///< engine: first task started -> completion
  double LagMs = 0;       ///< open loop: due time -> actually sent
  double AckMs = 0;       ///< open loop: sent -> `v2 queued` received
  double ServerMs = 0;    ///< open loop: engine submit -> completion
  regel::RegexPtr Answer; ///< first answer, null when unsolved
  unsigned Rank = 0;      ///< sketch rank of the first answer
};

/// The outcome of checking a batch of answers.
struct CheckTally {
  uint64_t Attempted = 0;
  uint64_t Solved = 0;
  uint64_t Correct = 0;      ///< answer regexEquivalent to the ground truth
  uint64_t Rank0 = 0;        ///< solved by the top-ranked sketch
  uint64_t Errored = 0;      ///< refused or expired by the system
  uint64_t Inconsistent = 0; ///< answer contradicts its own examples
  uint64_t Disagree = 0;     ///< DirectMatcher and Dfa disagree
  uint64_t failed() const { return Errored + Inconsistent + Disagree; }
};

/// Re-checks every answer against the examples it was asked with, using
/// DirectMatcher (the reference oracle) and a compiled Dfa, and compares
/// it with the task's ground truth. Runs outside every timed region.
CheckTally checkAnswers(const std::vector<Request> &Requests);

/// Engine counters of one pass, read from the engine's own exports.
struct EngineLayers {
  double SynthMs = 0; ///< summed per-sketch search time
  double DfaCompileMs = 0;
  double SmtInferMs = 0;
  uint64_t DfaCompiles = 0;
  uint64_t DfaGets = 0;
  uint64_t DfaHits = 0;
  uint64_t SmtSolves = 0;
  uint64_t SmtHits = 0;
  uint64_t ApproxHits = 0;
  uint64_t ApproxMisses = 0;
  uint64_t Pops = 0;
  uint64_t Expansions = 0;
  uint64_t Pruned = 0;
};
EngineLayers readEngineLayers(regel::engine::Engine &Eng);

/// The trained parsers every workload shares: the DeepRegex-style parser
/// and one StackOverflow parser per cross-validation fold.
struct Parsers {
  std::shared_ptr<regel::nlp::SemanticParser> DeepRegex;
  std::vector<std::shared_ptr<regel::nlp::SemanticParser>> Folds;
  /// The parser that did not see StackOverflow task \p Index in training.
  const std::shared_ptr<regel::nlp::SemanticParser> &
  forStackOverflow(size_t Index) const {
    return Folds[Index % Folds.size()];
  }
};

constexpr unsigned NumFolds = 5;

/// Trains every parser and writes the weights under \p Dir.
bool trainParsers(const std::string &Dir);
/// Loads weights written by trainParsers; false when any file is missing
/// or does not fit the grammar.
bool loadParsers(const std::string &Dir, Parsers &Out);

/// The datasets the workloads draw from.
std::vector<regel::data::Benchmark> deepRegexTasks(unsigned Count);
std::vector<regel::data::Benchmark> stackOverflowTasks(unsigned Count);

/// A seeded permutation of 0..N-1.
std::vector<size_t> seededOrder(size_t N, uint64_t Seed);

/// The workloads. Each fills \p R and returns false when it could not
/// run at all (the run then prints no result).
bool runNlSerial(const Options &O, Result &R);
bool runFeedbackServer(const Options &O, Result &R);
bool runLongExamples(const Options &O, Result &R);

/// Matcher cost against input length (traced runs only): per-match time
/// of DirectMatcher and of a compiled Dfa at n = 8 ... 1024 on seeded
/// ground truths, plus the fitted DirectMatcher exponent.
void runLengthSweep(uint64_t Seed, Result &R);

/// printf of one report line, newline-terminated and flushed.
void printLine(const char *Fmt, ...);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
