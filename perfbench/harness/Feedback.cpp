//===- perfbench/harness/Feedback.cpp - feedback_server -------------------===//
//
// The Sec. 8.1 feedback protocol through the socket server: every task is
// submitted with the examples of feedback rounds 0..3, rounds of different
// tasks interleaved in a seeded order, so three of every four requests
// repeat a description (and with it its sketches and approximations).
// Requests are `v2 submit` frames over loopback to an in-process
// SocketServer configured like examples/regel_server, with the trained
// parser, which parses on the server's loop thread.
//
// The gated run replays the plan as a closed loop (one client, one request
// in flight) in identical passes, each through a fresh server. A traced
// run adds an open-loop sweep: seeded Poisson arrivals at fixed rates,
// latency timed from each request's due time and the generator's own
// lateness reported as loadgen.lag. The sweep's figures carry no bound:
// on a shared machine they move by a factor of two between runs of the
// same seed (README.md, "Noise").
//
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "Report.h"

#include "core/Regel.h"
#include "regex/Parser.h"
#include "server/SocketServer.h"
#include "service/LocalService.h"
#include "service/Protocol.h"
#include "support/Random.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <iterator>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace regel;
namespace protocol = regel::protocol;

namespace perfbench {

namespace {

/// Offered rates of the open-loop sweep (requests per second). The higher
/// ones probe for the highest rate that meets the latency limit.
constexpr double Rates[] = {8, 32, 128};
constexpr unsigned NumTasks = 24;
/// The p95 latency limit a rate must meet to count as sustained.
constexpr double LatencyLimitMs = 1000;
constexpr unsigned FeedbackRounds = 4; ///< examplesAt(0..3)
constexpr unsigned NumConnections = 4;
/// A phase that has not completed by then is abandoned as failed.
constexpr double PhaseTimeoutMs = 60000;

/// A socket closed on every path.
struct Socket {
  int Fd = -1;
  std::string In;
  explicit Socket(int F) : Fd(F) {}
  ~Socket() {
    if (Fd >= 0)
      ::close(Fd);
  }
  Socket(const Socket &) = delete;
  Socket &operator=(const Socket &) = delete;
};

int connectLoopback(uint16_t Port) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  sockaddr_in A{};
  A.sin_family = AF_INET;
  A.sin_port = htons(Port);
  A.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&A), sizeof(A)) != 0) {
    ::close(Fd);
    return -1;
  }
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  return Fd;
}

bool sendAll(int Fd, const std::string &S) {
  size_t Off = 0;
  while (Off < S.size()) {
    ssize_t N = ::send(Fd, S.data() + Off, S.size() - Off, MSG_NOSIGNAL);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Off += static_cast<size_t>(N);
  }
  return true;
}

/// The request plan: every task at feedback rounds 0..3, rounds of
/// different tasks interleaved in a seeded order (a task's round k always
/// comes after its round k-1, like a user adding examples).
std::vector<Request> feedbackPlan(const std::vector<data::Benchmark> &Tasks,
                                  uint64_t Seed) {
  std::vector<unsigned> NextRound(Tasks.size(), 0);
  std::vector<size_t> Open;
  for (size_t I : seededOrder(Tasks.size(), Seed))
    Open.push_back(I);
  Rng R(Seed * 0xbf58476d1ce4e5b9ull + 0xfeed);
  std::vector<Request> Plan;
  while (!Open.empty()) {
    // Draw among the first few open tasks, so a task's rounds stay close
    // together in time as a user's would.
    size_t Window = std::min<size_t>(Open.size(), 4);
    size_t Pick = R.nextBelow(Window);
    size_t T = Open[Pick];
    Request Q;
    Q.Task = &Tasks[T];
    Q.E = Tasks[T].examplesAt(NextRound[T]);
    Plan.push_back(std::move(Q));
    if (++NextRound[T] == FeedbackRounds)
      Open.erase(Open.begin() + static_cast<std::ptrdiff_t>(Pick));
  }
  return Plan;
}

/// Seeded Poisson due times (ms from the phase start) at \p Rate: \p N
/// arrivals of a Poisson process conditioned on landing in N / Rate
/// seconds, i.e. sorted uniform draws over that window. Conditioning keeps
/// the phase length, and with it the offered rate, exactly as stated.
std::vector<double> poissonSchedule(size_t N, double Rate, uint64_t Seed) {
  Rng R(Seed * 0x94d049bb133111ebull + static_cast<uint64_t>(Rate * 1000));
  const double WindowMs = static_cast<double>(N) / Rate * 1000.0;
  std::vector<double> Due;
  for (size_t I = 0; I < N; ++I)
    Due.push_back(WindowMs * static_cast<double>(R.nextBelow(1u << 30)) /
                  static_cast<double>(1u << 30));
  std::sort(Due.begin(), Due.end());
  return Due;
}

/// Handles one server line for the request it names.
void onLine(const std::string &Line, std::vector<Request> &Reqs,
            const std::vector<double> &DueAt,
            const std::vector<double> &SentAt, double Now, size_t &Finished) {
  protocol::Response Resp;
  if (Line.rfind("v2 ", 0) != 0 ||
      protocol::decodeResponse(Line, protocol::Version::V2, Resp) !=
          protocol::ErrorCode::None)
    return; // the v1 greeting
  if (Resp.Id == 0 || Resp.Id > Reqs.size())
    return;
  size_t I = Resp.Id - 1;
  Request &Q = Reqs[I];
  if (Q.Done)
    return;
  switch (Resp.K) {
  case protocol::Response::Kind::Queued:
    Q.AckMs = Now - SentAt[I];
    break;
  case protocol::Response::Kind::Answer:
    if (!Q.Answer) {
      Q.Answer = parseRegex(Resp.Detail);
      Q.Rank = Resp.Rank;
    }
    break;
  case protocol::Response::Kind::Done:
  case protocol::Response::Kind::Error:
    Q.Done = true;
    Q.LatencyMs = Now - DueAt[I];
    // Every verdict but an answer or an honest "no solution" is a failure:
    // rejected, shed, deadline, expired, or a refused frame (busy, ...).
    Q.Errored = Resp.K == protocol::Response::Kind::Error ||
                (Resp.Status != "solved" && Resp.Status != "nosolution");
    Q.QueueMs = Resp.QueueMs;
    Q.ExecMs = Resp.ExecMs;
    Q.ServerMs = Resp.TotalMs;
    ++Finished;
    break;
  default:
    break;
  }
}

/// An engine behind an in-process SocketServer configured like
/// examples/regel_server (2 workers, capped caches, queue high-water 64,
/// deadline-aware shedding, 10 sketches per description), its event loop
/// thread, and the client's connections. Torn down in reverse.
class Served {
public:
  explicit Served(const std::shared_ptr<nlp::SemanticParser> &Parser) {
    engine::EngineConfig EC;
    EC.Threads = 2;
    const size_t CacheCap = 25000;
    EC.DfaCacheLimits.MaxEntries = CacheCap;
    EC.DfaCacheLimits.MaxCost = CacheCap * 2 * (1 + AlphabetSize);
    EC.ApproxCacheLimits.MaxEntries = CacheCap;
    EC.MaxQueueDepth = 64;
    EC.DeadlineShedding = true;
    Eng = std::make_shared<engine::Engine>(EC);
    server::ServerConfig SC;
    SC.Defaults.NumSketches = NumSketches;
    SC.Defaults.BudgetMs = 5000;
    SC.Defaults.TopK = 1;
    Server = std::make_unique<server::SocketServer>(
        Parser, std::make_shared<service::LocalService>(Eng), SC);
    if (!Server->start())
      return;
    Loop = std::thread([this] { Server->run(); });
    for (unsigned I = 0; I < NumConnections; ++I) {
      Conns.push_back(
          std::make_unique<Socket>(connectLoopback(Server->port())));
      Ok &= Conns.back()->Fd >= 0;
    }
  }
  ~Served() {
    Conns.clear();
    if (Loop.joinable()) {
      Server->stop();
      Loop.join();
    }
  }
  Served(const Served &) = delete;
  Served &operator=(const Served &) = delete;

  bool ok() const { return Loop.joinable() && Ok; }
  engine::Engine &engine() { return *Eng; }

  static constexpr unsigned NumSketches = 10;
  std::vector<std::unique_ptr<Socket>> Conns;

private:
  std::shared_ptr<engine::Engine> Eng;
  std::unique_ptr<server::SocketServer> Server;
  bool Ok = true;
  std::thread Loop; ///< last: started after, and joined before, the rest
};

/// One pass of the plan through a fresh engine and server: closed loop
/// (one connection, the next request sent when the previous one is done)
/// when \p Rate is 0, otherwise open loop at \p Rate on a seeded Poisson
/// schedule over all connections.
Pass runPhase(const std::vector<Request> &Plan, double Rate, uint64_t Seed,
              const std::shared_ptr<nlp::SemanticParser> &Parser, bool Trace,
              Result &R) {
  Served S(Parser);
  Pass P;
  P.Requests = Plan;
  if (!S.ok()) {
    R.Problems.push_back("socket server did not start");
    return P;
  }
  std::vector<std::unique_ptr<Socket>> &Conns = S.Conns;

  const bool Closed = Rate <= 0;
  std::vector<double> Due =
      Closed ? std::vector<double>(Plan.size(), 0)
             : poissonSchedule(Plan.size(), Rate, Seed);
  std::vector<double> SentAt(Plan.size(), 0);
  size_t Next = 0, Finished = 0;
  bool Broken = false;
  double Cpu0 = processCpuMs();
  double Start = nowMs();
  std::vector<double> DueAt;
  for (double D : Due)
    DueAt.push_back(Start + D);
  while (!Broken && Finished < Plan.size()) {
    double Now = nowMs();
    // Send every request that is due; in the closed loop, the next one as
    // soon as every earlier one is done.
    if (Closed && Next < Plan.size() && Next == Finished)
      DueAt[Next] = Now;
    while (Next < Plan.size() && Now >= DueAt[Next] &&
           (!Closed || Next == Finished)) {
      const Request &Q = P.Requests[Next];
      protocol::Request F;
      F.K = protocol::Request::Kind::Submit;
      F.V = protocol::Version::V2;
      F.Id = Next + 1;
      F.Text = Q.Task->Description;
      F.Pos = Q.E.Pos;
      F.Neg = Q.E.Neg;
      F.BudgetMs = NoBudget;
      F.MaxPops = MaxPops;
      std::string Line = protocol::encodeRequest(F, protocol::Version::V2);
      SentAt[Next] = nowMs();
      P.Requests[Next].LagMs = SentAt[Next] - DueAt[Next];
      if (!sendAll(Conns[Closed ? 0 : Next % Conns.size()]->Fd, Line + "\n"))
        Broken = true;
      ++Next;
      Now = nowMs();
    }
    if (Now - Start > PhaseTimeoutMs)
      break;
    double Wait = Next < Plan.size() && !Closed ? DueAt[Next] - Now : 50;
    std::vector<pollfd> Fds;
    for (auto &C : Conns)
      Fds.push_back({C->Fd, POLLIN, 0});
    int Ready = ::poll(Fds.data(), Fds.size(),
                       static_cast<int>(std::ceil(std::max(0.0, Wait))));
    if (Ready <= 0)
      continue;
    for (size_t CI = 0; CI < Conns.size(); ++CI) {
      if (!(Fds[CI].revents & (POLLIN | POLLHUP | POLLERR)))
        continue;
      char Buf[65536];
      ssize_t N = ::recv(Conns[CI]->Fd, Buf, sizeof(Buf), 0);
      if (N <= 0) {
        Broken = true;
        break;
      }
      double At = nowMs();
      std::string &In = Conns[CI]->In;
      In.append(Buf, static_cast<size_t>(N));
      size_t Nl;
      while ((Nl = In.find('\n')) != std::string::npos) {
        std::string Line = In.substr(0, Nl);
        In.erase(0, Nl + 1);
        onLine(Line, P.Requests, DueAt, SentAt, At, Finished);
      }
    }
  }
  P.WallMs = nowMs() - Start;
  P.CpuMs = processCpuMs() - Cpu0;
  P.Layers = readEngineLayers(S.engine());
  if (Broken || Finished < Plan.size())
    R.Problems.push_back("a pass through the server lost requests");
  for (Request &Q : P.Requests) {
    if (!Q.Done)
      Q.Errored = true; // never answered: counts as failed
    Q.Sketches = Served::NumSketches;
  }
  if (Trace)
    for (Request &Q : P.Requests) {
      // The server parses on its loop thread; time the same call here.
      double T0 = nowMs();
      std::vector<SketchPtr> Sketches = sketchesForDescription(
          *Parser, Q.Task->Description, Served::NumSketches);
      Q.ParseMs = nowMs() - T0;
      Q.Sketches = static_cast<unsigned>(Sketches.size());
    }
  return P;
}

/// Latency quantile over the answered requests of one open-loop phase.
double latencyQuantile(const Pass &P, double Q) {
  std::vector<double> L;
  for (const Request &X : P.Requests)
    if (X.Done && !X.Errored)
      L.push_back(X.LatencyMs);
  return quantile(L, Q);
}

/// A backlog grows when the last quarter of requests waits much longer
/// than the first quarter.
bool backlogGrows(const Pass &P) {
  size_t N = P.Requests.size(), Q = std::max<size_t>(N / 4, 1);
  std::vector<double> Head, Tail;
  for (size_t I = 0; I < Q; ++I) {
    Head.push_back(P.Requests[I].LatencyMs);
    Tail.push_back(P.Requests[N - 1 - I].LatencyMs);
  }
  return median(Tail) > 2 * median(Head) + 100;
}

/// The open-loop rate sweep of a traced run: one phase per offered rate,
/// reported without a bound (see README: on a shared machine these
/// figures move by a factor of two between runs of the same seed).
void openLoopSweep(const std::vector<Request> &Plan, const Options &O,
                   const std::shared_ptr<nlp::SemanticParser> &Parser,
                   Result &R) {
  double MaxRate = 0;
  printLine("open-loop sweep   p50 ms     p95 ms   lag p95 ms  backlog");
  for (double Rate : Rates) {
    Pass Phase = runPhase(Plan, Rate, O.Seed, Parser, /*Trace=*/false, R);
    double P50 = latencyQuantile(Phase, 0.5);
    double P95 = latencyQuantile(Phase, 0.95);
    std::vector<double> Lag;
    for (const Request &Q : Phase.Requests)
      Lag.push_back(Q.LagMs);
    bool Grows = backlogGrows(Phase);
    printLine("%8.1f /s %10.2f %10.2f %12.2f  %s", Rate, P50, P95,
              quantile(Lag, 0.95), Grows ? "grows" : "steady");
    if (Rate == Rates[0]) {
      R.set("open.latency_p50_ms", P50, "ms");
      R.set("open.latency_p95_ms", P95, "ms");
      R.set("loadgen.lag_ms.p95", quantile(Lag, 0.95), "ms");
    }
    if (P95 <= LatencyLimitMs && !Grows)
      MaxRate = Rate;
    R.set("loaded_latency_p95_ms", P95, "ms"); // the last rate's
  }
  R.set("max_rate_rps", MaxRate, "1/s");
}

} // namespace

bool runFeedbackServer(const Options &O, Result &R) {
  std::vector<data::Benchmark> Tasks;
  Parsers Ps;
  std::vector<Request> Plan;
  std::vector<double> SetupS;
  for (unsigned Rep = 0; Rep < SetupRepeats; ++Rep) {
    double T0 = nowMs();
    Tasks = deepRegexTasks(NumTasks);
    if (!loadParsers(O.WeightsDir, Ps))
      return false;
    Plan = feedbackPlan(Tasks, O.Seed);
    Served S(Ps.DeepRegex);
    SetupS.push_back((nowMs() - T0) / 1000.0);
    if (!S.ok())
      return false;
  }

  // The gated measurement: identical closed-loop passes of the plan
  // through a fresh server each. A traced run spends half of its time on
  // them and the rest on the open-loop sweep.
  std::vector<Pass> Passes;
  std::vector<double> Walls;
  double Start = nowMs();
  double Budget = O.Seconds * 1000.0 * (O.Trace ? 0.5 : 1.0);
  do {
    Passes.push_back(runPhase(Plan, 0, O.Seed, Ps.DeepRegex, O.Trace, R));
    Walls.push_back(Passes.back().WallMs);
  } while (R.correct() && nowMs() - Start + median(Walls) <= Budget);
  describeTraffic(Passes.front(), R);
  reportClosedLoop(Passes, median(SetupS), O, /*ThroughServer=*/true, R);
  if (O.Trace)
    openLoopSweep(Plan, O, Ps.DeepRegex, R);
  return true;
}

} // namespace perfbench
