//===- perfbench/harness/Harness.cpp --------------------------------------===//

#include "Harness.h"

#include "automata/Compile.h"
#include "data/DeepRegexSet.h"
#include "data/StackOverflowSet.h"
#include "nlp/Training.h"
#include "obs/Metrics.h"
#include "regex/Matcher.h"
#include "support/Random.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include <sys/resource.h>

using namespace regel;

namespace perfbench {

double nowMs() {
  using namespace std::chrono;
  return duration<double, std::milli>(steady_clock::now().time_since_epoch())
      .count();
}

double processCpuMs() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Ms = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) * 1000.0 +
           static_cast<double>(T.tv_usec) / 1000.0;
  };
  return Ms(U.ru_utime) + Ms(U.ru_stime);
}

double peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

namespace {

/// Continued fraction of the regularized incomplete beta function
/// (modified Lentz), valid for X < (A + 1) / (A + B + 2).
double betaContinuedFraction(double A, double B, double X) {
  const double Tiny = 1e-300;
  double C = 1, D = 1 - (A + B) * X / (A + 1);
  D = 1 / (std::fabs(D) < Tiny ? Tiny : D);
  double H = D;
  for (int M = 1; M <= 300; ++M) {
    for (int Half = 0; Half < 2; ++Half) {
      double Num = Half == 0
                       ? M * (B - M) * X / ((A + 2 * M - 1) * (A + 2 * M))
                       : -(A + M) * (A + B + M) * X /
                             ((A + 2 * M) * (A + 2 * M + 1));
      D = 1 + Num * D;
      D = 1 / (std::fabs(D) < Tiny ? Tiny : D);
      C = 1 + Num / C;
      C = std::fabs(C) < Tiny ? Tiny : C;
      H *= D * C;
    }
    if (std::fabs(D * C - 1) < 1e-12)
      break;
  }
  return H;
}

/// The regularized incomplete beta function I_X(A, B).
double incompleteBeta(double A, double B, double X) {
  if (X <= 0)
    return 0;
  if (X >= 1)
    return 1;
  double LogFront = std::lgamma(A + B) - std::lgamma(A) - std::lgamma(B) +
                    A * std::log(X) + B * std::log(1 - X);
  if (X < (A + 1) / (A + B + 2))
    return std::exp(LogFront) * betaContinuedFraction(A, B, X) / A;
  return 1 - std::exp(LogFront) * betaContinuedFraction(B, A, 1 - X) / B;
}

} // namespace

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  // Harrell-Davis: a Beta((n+1)q, (n+1)(1-q))-weighted mean of all order
  // statistics. A sample's values often cluster (every feedback round of
  // a task parses the same description), and a single order statistic
  // then jumps between clusters on a small perturbation; this estimate
  // moves smoothly instead.
  const double N = static_cast<double>(V.size());
  const double A = (N + 1) * Q, B = (N + 1) * (1 - Q);
  double Est = 0, Prev = 0;
  for (size_t I = 1; I <= V.size(); ++I) {
    double Cur = incompleteBeta(A, B, static_cast<double>(I) / N);
    Est += (Cur - Prev) * V[I - 1];
    Prev = Cur;
  }
  return Est;
}

double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

double sum(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return S;
}

void printLine(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  std::vprintf(Fmt, Args);
  va_end(Args);
  std::printf("\n");
  std::fflush(stdout);
}

namespace {

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.10g", V);
  return Buf;
}

} // namespace

std::string Result::json() const {
  std::ostringstream O;
  O << "{\"workload\": \"" << obs::jsonEscape(Workload) << "\", \"seed\": "
    << Seed << ", \"trace\": " << (Trace ? 1 : 0)
    << ", \"correct\": " << (correct() ? "true" : "false")
    << ", \"attempted\": " << Attempted << ", \"succeeded\": " << Succeeded
    << ", \"failed\": " << Failed << ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, M] : Metrics) {
    O << (First ? "" : ", ") << "\"" << obs::jsonEscape(Name)
      << "\": {\"value\": " << jsonNumber(M.Value) << ", \"unit\": \""
      << obs::jsonEscape(M.Unit) << "\"}";
    First = false;
  }
  O << "}, \"traffic\": {";
  First = true;
  for (const auto &[Name, V] : Traffic) {
    O << (First ? "" : ", ") << "\"" << obs::jsonEscape(Name)
      << "\": " << jsonNumber(V);
    First = false;
  }
  O << "}, \"problems\": [";
  First = true;
  for (const std::string &P : Problems) {
    O << (First ? "" : ", ") << "\"" << obs::jsonEscape(P) << "\"";
    First = false;
  }
  O << "]}";
  return O.str();
}

CheckTally checkAnswers(const std::vector<Request> &Requests) {
  CheckTally T;
  for (const Request &Q : Requests) {
    ++T.Attempted;
    if (Q.Errored) {
      ++T.Errored;
      continue;
    }
    if (!Q.Answer)
      continue;
    ++T.Solved;
    if (Q.Rank == 0)
      ++T.Rank0;
    DirectMatcher Oracle(Q.Answer);
    Dfa D = compileRegex(Q.Answer);
    bool Consistent = true, Agree = true;
    auto Check = [&](const std::vector<std::string> &Strs, bool Want) {
      for (const std::string &S : Strs) {
        bool Direct = Oracle.matches(S);
        Consistent &= Direct == Want;
        Agree &= Direct == D.matches(S);
      }
    };
    Check(Q.E.Pos, true);
    Check(Q.E.Neg, false);
    if (!Consistent)
      ++T.Inconsistent;
    else if (!Agree)
      ++T.Disagree;
    else if (regexEquivalent(Q.Answer, Q.Task->GroundTruth))
      ++T.Correct;
  }
  return T;
}

namespace {

/// Value of the first sample line of \p Name in a Prometheus exposition.
double promValue(const std::string &Text, const std::string &Name) {
  std::string Key = "\n" + Name + " ";
  size_t P = Text.find(Key);
  if (P == std::string::npos)
    return 0;
  return std::strtod(Text.c_str() + P + Key.size(), nullptr);
}

} // namespace

EngineLayers readEngineLayers(engine::Engine &Eng) {
  EngineLayers L;
  std::string Text = "\n" + Eng.metricsText();
  L.SynthMs = promValue(Text, "regel_synth_time_us_total") / 1000.0;
  L.DfaCompileMs = promValue(Text, "regel_dfa_compile_us_sum") / 1000.0;
  L.SmtInferMs = promValue(Text, "regel_smt_infer_us_sum") / 1000.0;
  engine::StatsSnapshot S = Eng.snapshot();
  L.DfaCompiles = S.DfaCompiles;
  L.DfaGets = S.DfaGets;
  L.DfaHits = S.DfaLocalHits + S.DfaSharedHits;
  L.SmtSolves = S.SmtSolves;
  L.SmtHits = S.SmtCacheHits;
  L.ApproxHits = Eng.caches().Approx.hits();
  L.ApproxMisses = Eng.caches().Approx.misses();
  L.Pops = S.Pops;
  L.Expansions = S.Expansions;
  L.Pruned = S.PrunedInfeasible;
  return L;
}

namespace {

std::string weightsPath(const std::string &Dir, const std::string &Name) {
  return Dir + "/" + Name + ".weights";
}

std::string foldName(unsigned Fold) { return "so_fold" + std::to_string(Fold); }

} // namespace

std::vector<data::Benchmark> deepRegexTasks(unsigned Count) {
  // The default generator seed is the paper-analog curated set; the
  // parser trains on a disjoint split (seed 0x7ea1).
  return data::deepRegexSet(Count);
}

std::vector<data::Benchmark> stackOverflowTasks(unsigned Count) {
  std::vector<data::Benchmark> Set = data::stackOverflowSet();
  if (Set.size() > Count)
    Set.resize(Count);
  return Set;
}

bool trainParsers(const std::string &Dir) {
  // The training recipe of the figure benches (Sec. 7): the DeepRegex
  // parser learns from a disjoint generated split, supervised with both
  // the hole-ified sketch and the concrete regex; the StackOverflow
  // parsers are 5-fold cross-validated (fold i never sees task i mod 5).
  // The six parsers are independent, so they train in parallel.
  std::vector<data::Benchmark> SO = data::stackOverflowSet();
  std::vector<std::shared_ptr<nlp::SemanticParser>> Out(NumFolds + 1);
  std::vector<std::thread> Workers;
  Workers.emplace_back([&Out] {
    std::vector<data::Benchmark> Train = data::deepRegexSet(150, 0x7ea1);
    std::vector<nlp::TrainExample> Examples;
    for (const data::Benchmark &B : Train)
      Examples.push_back({B.Description, B.GoldSketch});
    for (const data::Benchmark &B : Train)
      Examples.push_back({B.Description, Sketch::concrete(B.GroundTruth)});
    auto P = std::make_shared<nlp::SemanticParser>();
    nlp::TrainConfig Cfg;
    Cfg.Epochs = 3;
    nlp::trainParser(*P, Examples, Cfg);
    Out[0] = std::move(P);
  });
  for (unsigned Fold = 0; Fold < NumFolds; ++Fold)
    Workers.emplace_back([&Out, &SO, Fold] {
      std::vector<nlp::TrainExample> Examples;
      for (size_t I = 0; I < SO.size(); ++I)
        if (I % NumFolds != Fold)
          Examples.push_back({SO[I].Description, SO[I].GoldSketch});
      auto P = std::make_shared<nlp::SemanticParser>();
      nlp::TrainConfig Cfg;
      Cfg.Epochs = 3;
      nlp::trainParser(*P, Examples, Cfg);
      Out[Fold + 1] = std::move(P);
    });
  for (std::thread &W : Workers)
    W.join();
  bool Ok = Out[0]->saveWeights(weightsPath(Dir, "deepregex"));
  for (unsigned Fold = 0; Fold < NumFolds; ++Fold)
    Ok &= Out[Fold + 1]->saveWeights(weightsPath(Dir, foldName(Fold)));
  return Ok;
}

bool loadParsers(const std::string &Dir, Parsers &Out) {
  Out.DeepRegex = std::make_shared<nlp::SemanticParser>();
  if (!Out.DeepRegex->loadWeights(weightsPath(Dir, "deepregex")))
    return false;
  Out.Folds.clear();
  for (unsigned Fold = 0; Fold < NumFolds; ++Fold) {
    auto P = std::make_shared<nlp::SemanticParser>();
    if (!P->loadWeights(weightsPath(Dir, foldName(Fold))))
      return false;
    Out.Folds.push_back(std::move(P));
  }
  return true;
}

std::vector<size_t> seededOrder(size_t N, uint64_t Seed) {
  std::vector<size_t> Order(N);
  for (size_t I = 0; I < N; ++I)
    Order[I] = I;
  Rng R(Seed * 0x9e3779b97f4a7c15ull + 0x5eed);
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[R.nextBelow(I)]);
  return Order;
}

} // namespace perfbench
