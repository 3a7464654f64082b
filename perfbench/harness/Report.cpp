//===- perfbench/harness/Report.cpp ---------------------------------------===//

#include "Report.h"

#include <algorithm>
#include <cmath>
#include <set>

using namespace regel;

namespace perfbench {

namespace {

double share(double Part, double Whole) { return Whole > 0 ? Part / Whole : 0; }

template <typename F> std::vector<double> perPass(const std::vector<Pass> &Ps,
                                                  F Fn) {
  std::vector<double> V;
  for (const Pass &P : Ps)
    V.push_back(Fn(P));
  return V;
}

template <typename F>
std::vector<double> perRequest(const Pass &P, F Fn) {
  std::vector<double> V;
  for (const Request &Q : P.Requests)
    if (Q.Done && !Q.Errored)
      V.push_back(Fn(Q));
  return V;
}

uint64_t solvedIn(const Pass &P) {
  uint64_t N = 0;
  for (const Request &Q : P.Requests)
    N += Q.Answer != nullptr;
  return N;
}

} // namespace

void requireRepeatedCounts(const std::vector<Pass> &Passes, Result &R) {
  const Pass &F = Passes.front();
  for (const Pass &P : Passes) {
    const EngineLayers &A = F.Layers, &B = P.Layers;
    if (A.Pops != B.Pops || A.Expansions != B.Expansions ||
        A.DfaCompiles != B.DfaCompiles || A.SmtSolves != B.SmtSolves ||
        solvedIn(F) != solvedIn(P)) {
      R.Problems.push_back("fixed-work counts differ between passes");
      return;
    }
  }
  printLine("fixed-work counts repeated exactly over %zu passes "
            "(pops %llu, dfa compiles %llu, smt solves %llu, solved %llu)",
            Passes.size(), static_cast<unsigned long long>(F.Layers.Pops),
            static_cast<unsigned long long>(F.Layers.DfaCompiles),
            static_cast<unsigned long long>(F.Layers.SmtSolves),
            static_cast<unsigned long long>(solvedIn(F)));
}

void describeTraffic(const Pass &P, Result &R) {
  std::set<std::string> Tasks, Seen;
  std::vector<double> Lengths, Sketches;
  uint64_t Repeats = 0;
  for (const Request &Q : P.Requests) {
    Tasks.insert(Q.Task->Id);
    Repeats += !Seen.insert(Q.Task->Description).second;
    Sketches.push_back(Q.Sketches);
    for (const auto *Strs : {&Q.E.Pos, &Q.E.Neg})
      for (const std::string &S : *Strs)
        Lengths.push_back(static_cast<double>(S.size()));
  }
  R.Traffic["seed"] = static_cast<double>(R.Seed);
  R.Traffic["tasks"] = static_cast<double>(Tasks.size());
  R.Traffic["requests_per_pass"] = static_cast<double>(P.Requests.size());
  R.Traffic["description_repeat_share"] = share(
      static_cast<double>(Repeats), static_cast<double>(P.Requests.size()));
  R.Traffic["example_len_p50"] = median(Lengths);
  R.Traffic["example_len_max"] =
      Lengths.empty() ? 0 : *std::max_element(Lengths.begin(), Lengths.end());
  R.Traffic["sketches_per_query"] =
      share(sum(Sketches), static_cast<double>(Sketches.size()));
}

void reportOutcomes(const std::vector<Pass> &Passes, Result &R) {
  CheckTally T;
  for (const Pass &P : Passes) {
    CheckTally PT = checkAnswers(P.Requests);
    T.Attempted += PT.Attempted;
    T.Solved += PT.Solved;
    T.Correct += PT.Correct;
    T.Rank0 += PT.Rank0;
    T.Errored += PT.Errored;
    T.Inconsistent += PT.Inconsistent;
    T.Disagree += PT.Disagree;
  }
  R.Attempted = T.Attempted;
  R.Failed = T.failed();
  R.Succeeded = T.Attempted - T.failed();
  double N = static_cast<double>(T.Attempted);
  R.set("solved_share", share(static_cast<double>(T.Solved), N), "ratio");
  R.set("correct_share", share(static_cast<double>(T.Correct), N), "ratio");
  R.set("failed_share", share(static_cast<double>(T.failed()), N), "ratio");
  R.set("synth.rank0_share",
        share(static_cast<double>(T.Rank0), static_cast<double>(T.Solved)),
        "ratio");
  if (T.Inconsistent)
    R.Problems.push_back(std::to_string(T.Inconsistent) +
                         " answers contradict their own examples");
  if (T.Disagree)
    R.Problems.push_back(std::to_string(T.Disagree) +
                         " answers on which DirectMatcher and Dfa disagree");
  printLine("answer check: attempted %llu, succeeded %llu, failed %llu "
            "(errored %llu, inconsistent %llu, matcher disagreement %llu); "
            "solved %llu, correct %llu",
            static_cast<unsigned long long>(T.Attempted),
            static_cast<unsigned long long>(R.Succeeded),
            static_cast<unsigned long long>(T.failed()),
            static_cast<unsigned long long>(T.Errored),
            static_cast<unsigned long long>(T.Inconsistent),
            static_cast<unsigned long long>(T.Disagree),
            static_cast<unsigned long long>(T.Solved),
            static_cast<unsigned long long>(T.Correct));
}

void reportLayers(const std::vector<Pass> &Passes, bool ThroughServer,
                  Result &R) {
  // Every layer is a per-pass sum (ms/pass); the reported value is the
  // median over passes.
  auto Med = [&](auto Fn) { return median(perPass(Passes, Fn)); };
  auto ReqSum = [](const Pass &P, double Request::*Field) {
    return sum(perRequest(P, [Field](const Request &Q) { return Q.*Field; }));
  };
  auto MedSum = [&](double Request::*Field) {
    return Med([&](const Pass &P) { return ReqSum(P, Field); });
  };
  double Total = MedSum(&Request::LatencyMs);
  double Parse = MedSum(&Request::ParseMs);
  double Lag = MedSum(&Request::LagMs);
  double Ack = MedSum(&Request::AckMs);
  double Queue = MedSum(&Request::QueueMs);
  double Exec = MedSum(&Request::ExecMs);
  double Transport = Med([&](const Pass &P) {
    return sum(perRequest(P, [](const Request &Q) {
      return Q.LatencyMs - Q.LagMs - Q.AckMs - Q.ServerMs;
    }));
  });
  double Synth = Med([](const Pass &P) { return P.Layers.SynthMs; });
  double Compile = Med([](const Pass &P) { return P.Layers.DfaCompileMs; });
  double Infer = Med([](const Pass &P) { return P.Layers.SmtInferMs; });
  double Other = Med([](const Pass &P) {
    return P.Layers.SynthMs - P.Layers.DfaCompileMs - P.Layers.SmtInferMs;
  });

  R.set("engine.queue_ms", Queue, "ms/pass");
  R.set("engine.exec_ms", Exec, "ms/pass");
  R.set("automata.dfa_compile_ms", Compile, "ms/pass");
  R.set("smt.infer_ms", Infer, "ms/pass");
  R.set("synth.other_ms", Other, "ms/pass");
  R.set("automata.dfa_compiles",
        Med([](const Pass &P) { return double(P.Layers.DfaCompiles); }),
        "count/pass");
  R.set("smt.solves",
        Med([](const Pass &P) { return double(P.Layers.SmtSolves); }),
        "count/pass");
  R.set("synth.pops", Med([](const Pass &P) { return double(P.Layers.Pops); }),
        "count/pass");
  R.set("synth.pruned_share", Med([](const Pass &P) {
          return share(double(P.Layers.Pruned), double(P.Layers.Expansions));
        }),
        "ratio");
  R.set("cache.dfa_hit_share", Med([](const Pass &P) {
          return share(double(P.Layers.DfaHits), double(P.Layers.DfaGets));
        }),
        "ratio");
  R.set("cache.smt_hit_share", Med([](const Pass &P) {
          return share(double(P.Layers.SmtHits),
                       double(P.Layers.SmtHits + P.Layers.SmtSolves));
        }),
        "ratio");
  R.set("cache.approx_hit_share", Med([](const Pass &P) {
          return share(double(P.Layers.ApproxHits),
                       double(P.Layers.ApproxHits + P.Layers.ApproxMisses));
        }),
        "ratio");

  // Parse times: in-process, the harness times the parser call itself;
  // through the server, the server parses inside its ack, and the harness
  // re-times the same parser call on the same description after the pass,
  // so nlp.parse_ms there is a part of server.ack_ms.
  auto Pct = [&](double Request::*Field, double Q) {
    return Med([&](const Pass &P) {
      return quantile(
          perRequest(P, [Field](const Request &X) { return X.*Field; }), Q);
    });
  };
  bool HasParse = Parse > 0;
  if (HasParse) {
    R.set("nlp.parse_ms.p50", Pct(&Request::ParseMs, 0.5), "ms");
    R.set("nlp.parse_ms.p95", Pct(&Request::ParseMs, 0.95), "ms");
    R.set("nlp.parse_ms.sum", Parse, "ms/pass");
  }
  if (ThroughServer) {
    R.set("server.ack_ms.p50", Pct(&Request::AckMs, 0.5), "ms");
    R.set("server.ack_ms.p95", Pct(&Request::AckMs, 0.95), "ms");
    R.set("transport_ms", Transport, "ms/pass");
  }

  // The reconciliation: the layers a request passes through, end to end,
  // must add up to the latency the client saw.
  struct Row {
    const char *Name;
    double Ms;
    bool Top; ///< a top-level layer of the request (others break down exec)
  };
  std::vector<Row> Rows;
  if (ThroughServer) {
    Rows.push_back({"client send delay", Lag, true});
    Rows.push_back({"server.ack (parse on the loop thread)", Ack, true});
    if (HasParse)
      Rows.push_back({"  nlp.parse (re-timed, inside ack)", Parse, false});
  } else {
    Rows.push_back({"nlp.parse", Parse, true});
  }
  Rows.push_back({"engine.queue", Queue, true});
  Rows.push_back({"engine.exec", Exec, true});
  // Search time is summed over the engine's workers, so with two workers
  // running one job's sketches side by side it can exceed exec wall time.
  Rows.push_back({"  automata.dfa_compile", Compile, false});
  Rows.push_back({"  smt.infer", Infer, false});
  Rows.push_back({"  synth.other", Other, false});
  Rows.push_back({ThroughServer ? "  exec wall - search time of 2 workers"
                           : "  engine.dispatch (exec - search time)",
                  Exec - Synth, false});
  if (ThroughServer)
    Rows.push_back({"transport", Transport, true});
  double TopSum = 0;
  for (const Row &X : Rows)
    TopSum += X.Top ? X.Ms : 0;
  double Unattributed = Total - TopSum;
  printLine("layer table (ms per pass, median over %zu passes):",
            Passes.size());
  for (const Row &X : Rows)
    printLine("  %-40s %12.2f  %6.2f%%", X.Name, X.Ms,
              100 * share(X.Ms, Total));
  printLine("  %-40s %12.2f  %6.2f%%",
            ThroughServer ? "unattributed (engine total - queue - exec)"
                     : "unattributed (client side)",
            Unattributed, 100 * share(Unattributed, Total));
  printLine("  %-40s %12.2f", "end-to-end total (sum of latencies)", Total);
  double Gap = std::fabs(share(Unattributed, Total));
  printLine("  layers sum to the end-to-end total within %.2f%% "
            "(tolerance %.0f%%): %s",
            100 * Gap, 100 * ReconcileTolerance,
            Gap <= ReconcileTolerance ? "reconciled" : "NOT reconciled");
  R.set("layers.unattributed_share", share(Unattributed, Total), "ratio");
}

void reportClosedLoop(const std::vector<Pass> &Passes, double SetupS,
                      const Options &O, bool ThroughServer, Result &R) {
  // Every pass sends the same requests in the same order, so request i
  // has one latency per pass; its median over the passes drops what a
  // burst of machine noise did to one of them.
  std::vector<double> Latencies;
  for (size_t I = 0; I < Passes.front().Requests.size(); ++I)
    Latencies.push_back(median(perPass(Passes, [I](const Pass &P) {
      return P.Requests[I].LatencyMs;
    })));
  R.set("setup_s", SetupS, "s");
  R.set("latency_p50_ms", quantile(Latencies, 0.5), "ms");
  R.set("latency_p95_ms", quantile(Latencies, 0.95), "ms");
  R.set("throughput_rps", median(perPass(Passes, [](const Pass &P) {
          return share(1000.0 * static_cast<double>(P.Requests.size()),
                       P.WallMs);
        })),
        "1/s");
  R.set("cpu_ms_per_solved", median(perPass(Passes, [](const Pass &P) {
          return share(P.CpuMs, static_cast<double>(solvedIn(P)));
        })),
        "ms");
  R.set("peak_rss_mb", peakRssMb(), "MiB");
  R.set("passes", static_cast<double>(Passes.size()), "count");
  reportOutcomes(Passes, R);
  if (O.Trace)
    reportLayers(Passes, ThroughServer, R);
}

} // namespace perfbench
