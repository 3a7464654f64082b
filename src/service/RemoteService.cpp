//===- service/RemoteService.cpp ------------------------------------------===//

#include "service/RemoteService.h"

#include "regex/Parser.h"
#include "service/Protocol.h"
#include "sketch/Sketch.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

using namespace regel;
using namespace regel::service;

RemoteService::RemoteService(std::string Host, uint16_t Port)
    : Host(std::move(Host)), Port(Port) {}

RemoteService::~RemoteService() {
  int ToClose = -1;
  {
    MutexLock Guard(WriteM);
    ToClose = Fd;
    Fd = -1;
  }
  if (ToClose >= 0)
    ::shutdown(ToClose, SHUT_RDWR); // unblocks the reader's recv
  if (Reader.joinable())
    Reader.join();
  if (ToClose >= 0)
    ::close(ToClose);
}

bool RemoteService::connect() {
  {
    MutexLock Guard(M);
    if (Up)
      return true;
  }
  // A previous transport's reader has exited (Up is false only after the
  // reader's dropConnection); reap it and its fd before reconnecting.
  if (Reader.joinable())
    Reader.join();
  int Stale = -1;
  {
    MutexLock Guard(WriteM);
    Stale = Fd;
    Fd = -1;
  }
  if (Stale >= 0)
    ::close(Stale);
  int S = ::socket(AF_INET, SOCK_STREAM, 0);
  if (S < 0)
    return false;
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  if (::inet_pton(AF_INET, Host.c_str(), &Addr.sin_addr) != 1 ||
      ::connect(S, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(S);
    return false;
  }
  {
    MutexLock Guard(WriteM);
    Fd = S;
  }
  {
    MutexLock Guard(M);
    Up = true;
  }
  Reader = std::thread([this] { readerLoop(); });
  return true;
}

bool RemoteService::connected() const {
  MutexLock Guard(M);
  return Up;
}

bool RemoteService::sendLine(const std::string &Line,
                             bool BestEffort) const {
  MutexLock Guard(WriteM);
  if (Fd < 0)
    return false;
  std::string Data = Line + "\n";
  size_t Off = 0;
  while (Off < Data.size()) {
    // Only the FIRST send of a best-effort frame may bail on a full
    // buffer; once any byte is on the wire the frame must be finished
    // (blocking) or the line stream would be corrupted mid-frame.
    const int Flags =
        MSG_NOSIGNAL | (BestEffort && Off == 0 ? MSG_DONTWAIT : 0);
    // Blocking send under WriteM is the wire contract: frames are lines,
    // and two writers interleaving partial lines would corrupt the
    // stream. Callers that must not stall use BestEffort.
    ssize_t Sent = ::send( // analyze:allow socket-io WriteM serializes whole frames by design
        Fd, Data.data() + Off, Data.size() - Off, Flags);
    if (Sent <= 0) {
      if (Sent < 0 && errno == EINTR)
        continue;
      if (Sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK) &&
          BestEffort && Off == 0)
        return false; // buffer full: skip the probe, keep the stream clean
      return false;
    }
    Off += static_cast<size_t>(Sent);
  }
  return true;
}

Ticket RemoteService::submit(engine::JobRequest R) {
  Ticket T;
  {
    MutexLock Guard(M);
    T = NextTicket++;
    Outstanding[T] = PartialJob();
  }

  protocol::Request Req;
  Req.K = protocol::Request::Kind::Submit;
  Req.Id = T;
  for (const SketchPtr &S : R.Sketches)
    if (S)
      Req.Sketches.push_back(printSketch(S));
  Req.Pos = R.E.Pos;
  Req.Neg = R.E.Neg;
  Req.TopK = R.TopK;
  Req.BudgetMs = R.BudgetMs;
  Req.PerSketchBudgetMs = R.PerSketchBudgetMs;
  Req.SlaMs = R.ResidencyBudgetMs;
  Req.Pri = R.Pri;
  Req.HasPri = true;
  Req.MaxPops = R.Synth.MaxPops;
  Req.Deterministic = R.Deterministic;
  Req.HasDet = true; // exact forward: the remote request IS the request
  Req.Tag = R.Tag;

  const std::string Frame =
      protocol::encodeRequest(Req, protocol::Version::V2);
  // A frame the server would reject as oversized is never sent: the
  // ticket fails here as a plain rejection (TransportError stays false
  // — the link is fine, the request is just too big to ship).
  const bool Oversized = Frame.size() > protocol::MaxFrameBytes;
  bool Sent = !Oversized && connected() && sendLine(Frame);
  if (!Sent) {
    // Transport down (or frame oversized): the ticket still completes,
    // immediately — unless a concurrent dropConnection() already failed
    // it (the erase is the exactly-once arbiter; losing the race must
    // not deliver a second completion for the same ticket).
    bool StillOurs;
    {
      MutexLock Guard(M);
      StillOurs = Outstanding.erase(T) > 0;
    }
    if (StillOurs) {
      Completion C;
      C.Id = T;
      C.TransportError = !Oversized;
      C.Result.Rejected = true;
      pushCompletion(std::move(C));
    }
  }
  return T;
}

bool RemoteService::cancel(Ticket T) {
  {
    MutexLock Guard(M);
    if (!Outstanding.count(T))
      return false;
  }
  protocol::Request Req;
  Req.K = protocol::Request::Kind::Cancel;
  Req.Id = T;
  return sendLine(protocol::encodeRequest(Req, protocol::Version::V2));
}

std::vector<Completion> RemoteService::pollCompleted() {
  std::vector<Completion> Result;
  MutexLock Guard(M);
  Result.assign(std::make_move_iterator(Completed.begin()),
                std::make_move_iterator(Completed.end()));
  Completed.clear();
  return Result;
}

std::vector<Completion> RemoteService::waitCompleted(int64_t TimeoutMs) {
  UniqueLock Guard(M);
  CV.wait_for(Guard.native(),
              std::chrono::milliseconds(std::max<int64_t>(TimeoutMs, 0)),
              [this] { return completionPendingPred(); });
  std::vector<Completion> Result;
  Result.assign(std::make_move_iterator(Completed.begin()),
                std::make_move_iterator(Completed.end()));
  Completed.clear();
  return Result;
}

std::string RemoteService::statsJson() const {
  // Same discipline as health(): only the FIRST fetch after (re)connect
  // is a bounded synchronous round trip; afterwards the cached document
  // is served and refreshed asynchronously (at most one probe per
  // StatsRefreshMs). A client that can trigger stats at will (the
  // server's `stats` command runs on its single event loop) must not be
  // able to park that loop on a slow shard more than once.
  bool NeedFirstFetch;
  bool Probe = false;
  const auto Now = std::chrono::steady_clock::now();
  {
    MutexLock Guard(M);
    if (!Up)
      return "{}";
    NeedFirstFetch = !HaveStats;
    if (NeedFirstFetch || Now >= NextStatsProbe) {
      Probe = true;
      NextStatsProbe = Now + std::chrono::milliseconds(StatsRefreshMs);
    }
  }
  protocol::Request Req;
  Req.K = protocol::Request::Kind::Stats;
  // Steady-state refreshes are best-effort non-blocking sends: a wedged
  // peer (full socket buffer) costs a skipped probe, never a stalled
  // caller thread. Only the first fetch commits to a blocking send.
  if (Probe &&
      !sendLine(protocol::encodeRequest(Req, protocol::Version::V2),
                /*BestEffort=*/!NeedFirstFetch) &&
      NeedFirstFetch)
    return "{}";
  UniqueLock Guard(M);
  if (NeedFirstFetch)
    CV.wait_for(Guard.native(), std::chrono::milliseconds(RpcTimeoutMs),
                [this] { return statsReadyPred(); });
  return HaveStats ? StatsReply : "{}";
}

ServiceHealth RemoteService::health() const {
  // The SynthService contract makes health() a per-event-loop-turn /
  // per-routing-decision call, so after the first fetch it must not
  // block: it serves the cached reply and refreshes it asynchronously
  // (rate-limited to one probe per HealthRefreshMs; the reader thread
  // overwrites the cache when the reply lands). Only the FIRST call —
  // no cache yet — pays a bounded synchronous round trip, so callers
  // like the router see real worker counts from the start.
  ServiceHealth Down;
  Down.Healthy = false;
  bool NeedFirstFetch;
  bool Probe = false;
  const auto Now = std::chrono::steady_clock::now();
  {
    MutexLock Guard(M);
    if (!Up)
      return Down;
    NeedFirstFetch = !EverHadHealth;
    if (NeedFirstFetch || Now >= NextHealthProbe) {
      Probe = true;
      NextHealthProbe = Now + std::chrono::milliseconds(HealthRefreshMs);
    }
  }
  protocol::Request Req;
  Req.K = protocol::Request::Kind::Health;
  // Best-effort refresh after the first fetch (see statsJson): the
  // event-loop caller must never block on a wedged peer's send buffer.
  if (Probe &&
      !sendLine(protocol::encodeRequest(Req, protocol::Version::V2),
                /*BestEffort=*/!NeedFirstFetch) &&
      NeedFirstFetch)
    return Down;
  UniqueLock Guard(M);
  if (NeedFirstFetch)
    CV.wait_for(Guard.native(), std::chrono::milliseconds(RpcTimeoutMs),
                [this] { return healthReadyPred(); });
  if (!Up || !EverHadHealth)
    return Down;
  return HealthReply;
}

std::string RemoteService::metricsText() const {
  // statsJson's discipline verbatim, for the metrics exposition: first
  // fetch synchronous and bounded, then cached with rate-limited
  // best-effort refreshes (a scraper polling every second must not be
  // able to park the caller on a wedged shard).
  bool NeedFirstFetch;
  bool Probe = false;
  const auto Now = std::chrono::steady_clock::now();
  {
    MutexLock Guard(M);
    if (!Up)
      return "";
    NeedFirstFetch = !HaveMetrics;
    if (NeedFirstFetch || Now >= NextMetricsProbe) {
      Probe = true;
      NextMetricsProbe = Now + std::chrono::milliseconds(MetricsRefreshMs);
    }
  }
  protocol::Request Req;
  Req.K = protocol::Request::Kind::Metrics;
  if (Probe &&
      !sendLine(protocol::encodeRequest(Req, protocol::Version::V2),
                /*BestEffort=*/!NeedFirstFetch) &&
      NeedFirstFetch)
    return "";
  UniqueLock Guard(M);
  if (NeedFirstFetch)
    CV.wait_for(Guard.native(), std::chrono::milliseconds(RpcTimeoutMs),
                [this] { return metricsReadyPred(); });
  return HaveMetrics ? MetricsReply : "";
}

std::string RemoteService::traceJson(uint64_t Id) const {
  if (Id == 0)
    return "";
  // One whole fetch at a time: the reader matches replies by id, and two
  // interleaved fetches for different ids would race one reply slot.
  MutexLock Fetch(TraceM);
  {
    MutexLock Guard(M);
    if (!Up)
      return "";
    TraceWantId = Id;
    HaveTrace = false;
    TraceReply.clear();
  }
  protocol::Request Req;
  Req.K = protocol::Request::Kind::Trace;
  Req.Id = Id;
  // Both the send and the reply wait deliberately run under TraceM —
  // that lock exists to serialize whole fetches, and both are bounded
  // by RpcTimeoutMs, so the worst case is one slow fetch delaying the
  // next, never a deadlock.
  if (!sendLine(protocol::encodeRequest( // analyze:allow socket-io TraceM serializes whole fetches, bounded by RpcTimeoutMs
          Req, protocol::Version::V2)))
    return "";
  UniqueLock Guard(M);
  CV.wait_for(Guard.native(), // analyze:allow cv-wait reply wait under TraceM is the fetch-serialization point, bounded by RpcTimeoutMs
              std::chrono::milliseconds(RpcTimeoutMs),
              [this] { return traceReadyPred(); });
  TraceWantId = 0;
  return HaveTrace ? TraceReply : "";
}

void RemoteService::setWakeup(std::function<void()> Fn) {
  MutexLock Guard(M);
  Wakeup = std::move(Fn);
}

void RemoteService::wake() {
  std::function<void()> Fn;
  {
    MutexLock Guard(M);
    Fn = Wakeup;
  }
  CV.notify_all();
  if (Fn)
    Fn();
}

void RemoteService::pushCompletion(Completion C) {
  {
    MutexLock Guard(M);
    Completed.push_back(std::move(C));
  }
  wake();
}

void RemoteService::readerLoop() {
  std::string Buf;
  char Tmp[4096];
  for (;;) {
    int S;
    {
      MutexLock Guard(WriteM);
      S = Fd;
    }
    if (S < 0)
      break;
    ssize_t Got = ::recv(S, Tmp, sizeof(Tmp), 0);
    if (Got == 0)
      break; // orderly close
    if (Got < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    Buf.append(Tmp, static_cast<size_t>(Got));
    size_t Start = 0;
    for (;;) {
      size_t Nl = Buf.find('\n', Start);
      if (Nl == std::string::npos)
        break;
      std::string Line = Buf.substr(Start, Nl - Start);
      if (!Line.empty() && Line.back() == '\r')
        Line.pop_back();
      Start = Nl + 1;
      handleLine(Line);
    }
    Buf.erase(0, Start);
    if (Buf.size() > protocol::MaxFrameBytes)
      break; // server is feeding garbage; drop the transport
  }
  dropConnection();
}

void RemoteService::handleLine(const std::string &Line) {
  protocol::Response R;
  if (protocol::decodeResponse(Line, protocol::Version::V2, R) !=
      protocol::ErrorCode::None)
    return; // v1 banner or junk: a v2 client ignores what it cannot parse

  switch (R.K) {
  case protocol::Response::Kind::Queued:
  case protocol::Response::Kind::Ok:
    return; // acks carry no state we track
  case protocol::Response::Kind::Answer: {
    RegexPtr Rx = parseRegex(R.Detail);
    if (!Rx)
      return;
    MutexLock Guard(M);
    auto It = Outstanding.find(R.Id);
    if (It == Outstanding.end())
      return;
    engine::JobAnswer A;
    A.Regex = std::move(Rx);
    A.SketchRank = R.Rank;
    // A.Sketch stays null: sketches do not round-trip back (header).
    It->second.Result.Answers.push_back(std::move(A));
    return;
  }
  case protocol::Response::Kind::Done: {
    Completion C;
    {
      MutexLock Guard(M);
      auto It = Outstanding.find(R.Id);
      if (It == Outstanding.end())
        return;
      C.Id = R.Id;
      C.Result = std::move(It->second.Result);
      Outstanding.erase(It);
    }
    protocol::applyVerdict(R.Status, C.Result);
    C.Result.TotalMs = R.TotalMs;
    C.Result.ExecMs = R.ExecMs;
    C.Result.QueueMs = R.QueueMs;
    C.Result.TraceId = R.TraceId;
    pushCompletion(std::move(C));
    return;
  }
  case protocol::Response::Kind::Error: {
    // Submit-context errors echo the frame id (busy, duplicate_id,
    // bad_argument, nothing_to_solve): fail exactly that ticket as a
    // rejected completion, preserving exactly-one-completion. Errors
    // without an id (malformed — unreachable for frames this client
    // encodes) concern no ticket and are dropped.
    if (R.Id == 0)
      return;
    Completion C;
    {
      MutexLock Guard(M);
      auto It = Outstanding.find(R.Id);
      if (It == Outstanding.end())
        return; // a cancel's unknown_id, or already completed
      C.Id = R.Id;
      C.Result = std::move(It->second.Result);
      Outstanding.erase(It);
    }
    C.Result.Rejected = true;
    pushCompletion(std::move(C));
    return;
  }
  case protocol::Response::Kind::Stats: {
    MutexLock Guard(M);
    StatsReply = R.Detail;
    HaveStats = true;
    CV.notify_all();
    return;
  }
  case protocol::Response::Kind::Metrics: {
    MutexLock Guard(M);
    MetricsReply = R.Detail;
    HaveMetrics = true;
    CV.notify_all();
    return;
  }
  case protocol::Response::Kind::Trace: {
    MutexLock Guard(M);
    if (R.Id != TraceWantId)
      return; // stale reply for an abandoned (timed-out) fetch
    TraceReply = R.Detail;
    HaveTrace = true;
    CV.notify_all();
    return;
  }
  case protocol::Response::Kind::Health: {
    MutexLock Guard(M);
    HealthReply.Healthy = R.Healthy;
    HealthReply.QueueDepth = R.QueueDepth;
    HealthReply.Workers = R.Workers;
    HealthReply.EstWaitMs = R.EstWaitMs;
    HealthReply.NextDeadlineDeltaMs = R.NextDeadlineMs;
    HealthReply.BlendedServiceMs = -1;
    EverHadHealth = true;
    CV.notify_all();
    return;
  }
  default:
    return;
  }
}

void RemoteService::dropConnection() {
  // Fail every outstanding ticket exactly once, then mark the transport
  // down. The fd itself is closed by the destructor or a reconnect.
  std::vector<Completion> Lost;
  {
    MutexLock Guard(M);
    if (!Up && Outstanding.empty())
      return;
    Up = false;
    EverHadHealth = false; // a reconnect must not serve stale caches
    HaveStats = false;
    HaveMetrics = false;
    for (auto &KV : Outstanding) {
      Completion C;
      C.Id = KV.first;
      // Per the contract, a TransportError completion carries NO
      // answers: anything streamed before the drop is half a result
      // (solved() must not read true for a job the caller has to
      // retry).
      C.Result.Rejected = true;
      C.TransportError = true;
      Lost.push_back(std::move(C));
    }
    Outstanding.clear();
    for (Completion &C : Lost)
      Completed.push_back(std::move(C));
  }
  wake();
}
