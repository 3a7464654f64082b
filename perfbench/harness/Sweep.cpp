//===- perfbench/harness/Sweep.cpp - Matcher cost against input length ----===//
//
// Both matchers are dynamic programs whose cost should be measured as a
// function of input length rather than assumed. The sweep times one
// membership query of DirectMatcher (memo over node x i x j) and of a
// compiled Dfa at n = 8 ... 1024, on seeded ground truths and on seeded
// strings of exactly n characters built from each regex's own positive
// examples (so the DP explores real matches, not an early mismatch), and
// fits the DirectMatcher exponent as the log-log slope over n >= 32.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "automata/Compile.h"
#include "regex/Matcher.h"
#include "support/Random.h"

#include <cmath>

using namespace regel;

namespace perfbench {

namespace {

constexpr unsigned SweepLengths[] = {8, 32, 128, 512, 1024};
constexpr unsigned SweepRegexes = 6;

/// A string of exactly \p N characters: positives of the regex joined end
/// to end (a prefix of a repeated positive is a long near-match).
std::string inputOfLength(const data::Benchmark &B, unsigned N, Rng &R) {
  const std::vector<std::string> &Pos = B.Initial.Pos;
  std::string S;
  while (S.size() < N) {
    if (!Pos.empty())
      S += Pos[R.nextBelow(Pos.size())];
    if (S.empty())
      S += 'a';
  }
  S.resize(N);
  return S;
}

/// Median time of one call of \p Fn in us, over enough calls to pass
/// \p MinMs of measurement (at least 3).
template <typename F> double timeUs(F Fn, double MinMs) {
  std::vector<double> Us;
  double Start = nowMs();
  while (Us.size() < 3 || nowMs() - Start < MinMs) {
    double T0 = nowMs();
    Fn();
    Us.push_back((nowMs() - T0) * 1000.0);
  }
  return median(Us);
}

} // namespace

void runLengthSweep(uint64_t Seed, Result &R) {
  std::vector<data::Benchmark> Tasks = deepRegexTasks(SweepRegexes * 4);
  std::vector<size_t> Order = seededOrder(Tasks.size(), Seed);
  std::vector<double> LogN, LogDirect;
  printLine("length sweep (median us per membership query over %u seeded "
            "ground truths):",
            SweepRegexes);
  printLine("  %6s %16s %16s", "n", "DirectMatcher", "Dfa");
  for (unsigned N : SweepLengths) {
    std::vector<double> Direct, ViaDfa;
    Rng StrRng(Seed * 0x9e3779b97f4a7c15ull + N);
    for (unsigned K = 0; K < SweepRegexes; ++K) {
      const data::Benchmark &B = Tasks[Order[K]];
      std::string S = inputOfLength(B, N, StrRng);
      volatile bool Sink = false;
      Direct.push_back(timeUs(
          [&] { Sink = matchesDirect(B.GroundTruth, S); }, 20));
      Dfa D = compileRegex(B.GroundTruth);
      ViaDfa.push_back(timeUs([&] { Sink = D.matches(S); }, 5));
      (void)Sink;
    }
    double DirectUs = median(Direct), DfaUs = median(ViaDfa);
    printLine("  %6u %16.2f %16.3f", N, DirectUs, DfaUs);
    R.set("regex.direct_match_us.n" + std::to_string(N), DirectUs, "us");
    R.set("automata.dfa_match_us.n" + std::to_string(N), DfaUs, "us");
    if (N >= 32) {
      LogN.push_back(std::log(double(N)));
      LogDirect.push_back(std::log(std::max(DirectUs, 1e-3)));
    }
  }
  // Least-squares slope of log(time) against log(n).
  double MX = sum(LogN) / LogN.size(), MY = sum(LogDirect) / LogDirect.size();
  double Num = 0, Den = 0;
  for (size_t I = 0; I < LogN.size(); ++I) {
    Num += (LogN[I] - MX) * (LogDirect[I] - MY);
    Den += (LogN[I] - MX) * (LogN[I] - MX);
  }
  double Exponent = Den > 0 ? Num / Den : 0;
  printLine("  DirectMatcher cost grows as n^%.2f (fit over n >= 32)",
            Exponent);
  R.set("regex.direct_match_exponent", Exponent, "1");
}

} // namespace perfbench
