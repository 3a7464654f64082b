//===- perfbench/harness/main.cpp - The end-to-end benchmark's entry ------===//
//
//   regel_perfbench train --weights DIR
//   regel_perfbench run --workload NAME --seed N --seconds S --trace 0|1
//                       --weights DIR
//
// `train` fits the parsers once per build and writes their weights; `run`
// loads them, runs one workload and prints a human-readable report
// followed, on the last line, by the full result as one JSON object
// (perfbench/run.py turns it into the benchmark's result line).
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <cstdio>
#include <cstdlib>
#include <string>

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: regel_perfbench train --weights DIR\n"
               "       regel_perfbench run --workload "
               "nl_serial|feedback_server|long_examples --seed N --seconds S "
               "--trace 0|1 --weights DIR\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  std::string Mode = Argv[1];
  Options O;
  for (int I = 2; I + 1 < Argc; I += 2) {
    std::string Key = Argv[I], Val = Argv[I + 1];
    if (Key == "--workload")
      O.Workload = Val;
    else if (Key == "--seed")
      O.Seed = std::strtoull(Val.c_str(), nullptr, 10);
    else if (Key == "--seconds")
      O.Seconds = std::atof(Val.c_str());
    else if (Key == "--trace")
      O.Trace = Val == "1";
    else if (Key == "--weights")
      O.WeightsDir = Val;
    else
      return usage();
  }
  if (O.WeightsDir.empty())
    return usage();

  if (Mode == "train") {
    double T0 = nowMs();
    if (!trainParsers(O.WeightsDir)) {
      std::fprintf(stderr, "regel_perfbench: could not write weights\n");
      return 1;
    }
    printLine("trained 1 DeepRegex parser and %u StackOverflow fold parsers "
              "in %.1f s",
              NumFolds, (nowMs() - T0) / 1000.0);
    return 0;
  }
  if (Mode != "run" || O.Seconds <= 0)
    return usage();

  Result R;
  R.Workload = O.Workload;
  R.Seed = O.Seed;
  R.Trace = O.Trace;
  printLine("workload %s, seed %llu, %.0f s, trace %d", O.Workload.c_str(),
            static_cast<unsigned long long>(O.Seed), O.Seconds,
            O.Trace ? 1 : 0);
  bool Ran = false;
  if (O.Workload == "nl_serial")
    Ran = runNlSerial(O, R);
  else if (O.Workload == "feedback_server")
    Ran = runFeedbackServer(O, R);
  else if (O.Workload == "long_examples")
    Ran = runLongExamples(O, R);
  else
    return usage();
  if (!Ran) {
    std::fprintf(stderr, "regel_perfbench: workload %s could not run\n",
                 O.Workload.c_str());
    return 1;
  }
  if (O.Trace)
    runLengthSweep(O.Seed, R);
  std::printf("%s\n", R.json().c_str());
  return 0;
}
