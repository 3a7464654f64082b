//===- service/RouterService.cpp ------------------------------------------===//

#include "service/RouterService.h"

#include "engine/Caches.h" // mix64
#include "obs/Metrics.h"

#include <cassert>
#include <chrono>

using namespace regel;
using namespace regel::service;

RouterService::RouterService(
    std::vector<std::shared_ptr<SynthService>> Backends, RouterConfig Cfg)
    : Backends(std::move(Backends)), Cfg(Cfg),
      Hub(std::make_shared<WakeHub>()) {
  assert(!this->Backends.empty() && "router needs at least one backend");
  In.resize(this->Backends.size());
  Stash.resize(this->Backends.size());
  InFlightSubmits.assign(this->Backends.size(), 0);
  PerBackend.assign(this->Backends.size(), 0);
  for (const std::shared_ptr<SynthService> &B : this->Backends)
    B->setWakeup([H = Hub] {
      std::function<void()> Fn;
      {
        MutexLock Guard(H->M);
        H->Pending = true;
        Fn = H->UserFn;
      }
      H->CV.notify_all();
      if (Fn)
        Fn();
    });
}

uint64_t RouterService::affinityKey(const engine::JobRequest &R) {
  // Fold the structural sketch hashes through mix64 so the shard choice
  // depends on every bit. Order-sensitive fold: sketch lists are ranked, and two ranked
  // lists are the same workload only in the same order.
  uint64_t Key = 0x9e3779b97f4a7c15ull;
  for (const SketchPtr &S : R.Sketches)
    if (S)
      Key = engine::mix64(Key ^ static_cast<uint64_t>(S->hash()));
  return engine::mix64(Key);
}

size_t RouterService::pickBackend(const engine::JobRequest &R) const {
  return pickFrom(static_cast<size_t>(affinityKey(R) % Backends.size()));
}

size_t RouterService::pickFrom(size_t Home) const {
  const size_t N = Backends.size();
  if (N == 1 || Cfg.SpillMarginMs < 0)
    return Home;
  // Health reads are per-decision: routing must see current queue state,
  // not a cached view that lets every job in a burst pile onto the same
  // "least loaded" shard.
  double HomeWait = 0, MinWait = 0;
  size_t Min = Home;
  for (size_t I = 0; I < N; ++I) {
    const ServiceHealth H = Backends[I]->health();
    // Treat an unhealthy backend as infinitely loaded so affinity never
    // pins a job to a dead shard.
    const double Wait = H.Healthy ? H.EstWaitMs : 1e18;
    if (I == Home)
      HomeWait = Wait;
    if (I == 0 || Wait < MinWait) {
      MinWait = Wait;
      Min = I;
    }
  }
  if (HomeWait - MinWait > Cfg.SpillMarginMs)
    return Min;
  return Home;
}

Ticket RouterService::submit(engine::JobRequest R) {
  const size_t Home = static_cast<size_t>(affinityKey(R) % Backends.size());
  const size_t Idx = pickFrom(Home);
  // M is deliberately NOT held across the backend submit: one wedged
  // remote backend (blocking in send) must not freeze the router's
  // completion drain for every healthy shard. The cost is a race — the
  // job can complete and be drained before its In mapping exists — paid
  // off through Stash: the drain parks completions it cannot resolve
  // while a submit is in flight, and this tail claims them.
  Ticket T;
  {
    MutexLock Guard(M);
    T = NextTicket++;
    ++InFlightSubmits[Idx];
  }
  Ticket BT = 0;
  try {
    BT = Backends[Idx]->submit(std::move(R));
  } catch (...) {
    // Undo the in-flight count on the throwing path too: a stuck
    // nonzero counter makes the drain stash this backend's unmatched
    // completions forever.
    MutexLock Guard(M);
    if (--InFlightSubmits[Idx] == 0)
      Stash[Idx].clear();
    throw;
  }
  {
    MutexLock Guard(M);
    --InFlightSubmits[Idx];
    ++Routed;
    ++PerBackend[Idx];
    if (Idx != Home)
      ++Spilled;
    bool Claimed = false;
    std::vector<Completion> &S = Stash[Idx];
    for (size_t I = 0; I < S.size(); ++I)
      if (S[I].Id == BT) {
        S[I].Id = T;
        Ready.push_back(std::move(S[I]));
        S.erase(S.begin() + static_cast<ptrdiff_t>(I));
        Claimed = true;
        break;
      }
    if (!Claimed) {
      Out[T] = {Idx, BT};
      In[Idx][BT] = T;
    }
    // No submit in flight for this backend means every stash check has
    // run: whatever is left can match nothing — foreign completions
    // from a violated sole-consumer contract — so drop it.
    if (InFlightSubmits[Idx] == 0)
      S.clear();
    if (!Claimed)
      return T;
  }
  // A stash claim moved a completion into Ready without a backend
  // wakeup to announce it (the original poke fired before the mapping
  // existed): poke the hub ourselves or a blocked waitCompleted could
  // sleep out its timeout on a deliverable completion.
  std::function<void()> Fn;
  {
    MutexLock Guard(Hub->M);
    Hub->Pending = true;
    Fn = Hub->UserFn;
  }
  Hub->CV.notify_all();
  if (Fn)
    Fn();
  return T;
}

bool RouterService::cancel(Ticket T) {
  size_t Idx;
  Ticket BT;
  {
    MutexLock Guard(M);
    auto It = Out.find(T);
    if (It == Out.end())
      return false;
    Idx = It->second.Backend;
    BT = It->second.BackendTicket;
  }
  return Backends[Idx]->cancel(BT);
}

std::vector<Completion> RouterService::pollCompleted() {
  std::vector<Completion> Result;
  {
    // Stash hits resolved by submit tails are already remapped; deliver
    // them first so completion order stays close to arrival order.
    MutexLock Guard(M);
    Result.assign(std::make_move_iterator(Ready.begin()),
                  std::make_move_iterator(Ready.end()));
    Ready.clear();
  }
  for (size_t I = 0; I < Backends.size(); ++I) {
    std::vector<Completion> Got = Backends[I]->pollCompleted();
    if (Got.empty())
      continue;
    MutexLock Guard(M);
    for (Completion &C : Got) {
      auto It = In[I].find(C.Id);
      if (It == In[I].end()) {
        if (InFlightSubmits[I] > 0)
          Stash[I].push_back(std::move(C)); // submit tail will claim it
        // else: unknown backend completion, dropped (sole-consumer
        // contract was violated upstream)
        continue;
      }
      C.Id = It->second;
      Out.erase(It->second);
      In[I].erase(It);
      Result.push_back(std::move(C));
    }
  }
  return Result;
}

std::vector<Completion> RouterService::waitCompleted(int64_t TimeoutMs) {
  // Block across N backends without a thread per backend: every backend
  // wakeup sets Hub->Pending, so one CV wait covers them all. Real-time
  // slices (not the engine clock) — the router cannot assume its
  // backends even share a clock (remote ones do not).
  const auto Deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(std::max<int64_t>(TimeoutMs, 0));
  for (;;) {
    std::vector<Completion> Got = pollCompleted();
    if (!Got.empty())
      return Got;
    UniqueLock Guard(Hub->M);
    if (Hub->Pending) {
      // A poke landed between the drain above and here; consume it and
      // re-poll rather than clearing it into a lost wakeup.
      Hub->Pending = false;
      Guard.unlock();
      continue;
    }
    if (Hub->CV.wait_until(Guard.native(), Deadline,
                           [this] { return Hub->pendingPred(); })) {
      Hub->Pending = false;
      Guard.unlock();
      continue;
    }
    Guard.unlock();
    // Timed out; one final drain catches a straggler.
    return pollCompleted();
  }
}

std::string RouterService::statsJson() const {
  RouterStats S = stats();
  std::string Json = "{\"router\":{\"backends\":";
  Json += std::to_string(Backends.size());
  Json += ",\"routed\":";
  Json += std::to_string(S.Routed);
  Json += ",\"spilled\":";
  Json += std::to_string(S.Spilled);
  Json += ",\"routed_per_backend\":[";
  for (size_t I = 0; I < S.PerBackend.size(); ++I) {
    if (I)
      Json += ',';
    Json += std::to_string(S.PerBackend[I]);
  }
  // One labeled entry per backend, snapshotted NOW — not a bare
  // concatenation a reader cannot attribute to a shard — plus one
  // merged fleet snapshot over every backend that yields a structured
  // one. merged_backends says how many the merge actually covers, so a
  // partial merge (opaque remote shard) is visible, never silent.
  Json += "],\"backend_stats\":[";
  engine::StatsSnapshot Merged;
  unsigned MergedCount = 0;
  for (size_t I = 0; I < Backends.size(); ++I) {
    if (I)
      Json += ',';
    Json += "{\"backend\":";
    Json += std::to_string(I);
    Json += ",\"stats\":";
    engine::StatsSnapshot Snap;
    if (Backends[I]->statsSnapshot(Snap)) {
      Json += Snap.toJson();
      Merged.merge(Snap);
      ++MergedCount;
    } else {
      Json += Backends[I]->statsJson();
    }
    Json += '}';
  }
  Json += "],\"merged_backends\":";
  Json += std::to_string(MergedCount);
  Json += ",\"merged\":";
  Json += MergedCount ? Merged.toJson() : std::string("null");
  Json += "}}";
  return Json;
}

bool RouterService::statsSnapshot(engine::StatsSnapshot &Out) const {
  engine::StatsSnapshot Merged;
  unsigned MergedCount = 0;
  for (const std::shared_ptr<SynthService> &B : Backends) {
    engine::StatsSnapshot Snap;
    if (B->statsSnapshot(Snap)) {
      Merged.merge(Snap);
      ++MergedCount;
    }
  }
  if (!MergedCount)
    return false;
  Out = Merged;
  return true;
}

std::string RouterService::metricsText() const {
  // Federate by absorbing each backend's text exposition into a scratch
  // registry: counters/gauges sum, histograms merge bucket-by-bucket
  // (fixed bucket bounds make the merge exact and associative), so a
  // percentile read off the merged exposition is the percentile of the
  // union of every shard's samples.
  obs::Registry Merged(1);
  for (const std::shared_ptr<SynthService> &B : Backends) {
    const std::string Text = B->metricsText();
    if (!Text.empty())
      Merged.absorbText(Text);
  }
  RouterStats S = stats();
  Merged.counter("regel_router_routed_total").set(S.Routed);
  Merged.counter("regel_router_spilled_total").set(S.Spilled);
  Merged.gauge("regel_router_backends").set(
      static_cast<int64_t>(Backends.size()));
  for (size_t I = 0; I < S.PerBackend.size(); ++I)
    Merged
        .counter("regel_router_routed_total",
                 "backend=\"" + std::to_string(I) + "\"")
        .set(S.PerBackend[I]);
  return Merged.renderText();
}

std::string RouterService::traceJson(uint64_t Id) const {
  if (Id == 0)
    return "";
  for (const std::shared_ptr<SynthService> &B : Backends) {
    std::string Json = B->traceJson(Id);
    if (!Json.empty())
      return Json;
  }
  return "";
}

ServiceHealth RouterService::health() const {
  ServiceHealth Agg;
  Agg.Healthy = true;
  bool First = true;
  for (const std::shared_ptr<SynthService> &B : Backends) {
    const ServiceHealth H = B->health();
    Agg.Healthy = Agg.Healthy && H.Healthy;
    Agg.QueueDepth += H.QueueDepth;
    Agg.Workers += H.Workers;
    // What a submission routed now would see: the least-loaded wait.
    if (First || H.EstWaitMs < Agg.EstWaitMs)
      Agg.EstWaitMs = H.EstWaitMs;
    if (H.BlendedServiceMs > Agg.BlendedServiceMs)
      Agg.BlendedServiceMs = H.BlendedServiceMs;
    if (H.NextDeadlineDeltaMs >= 0 &&
        (Agg.NextDeadlineDeltaMs < 0 ||
         H.NextDeadlineDeltaMs < Agg.NextDeadlineDeltaMs))
      Agg.NextDeadlineDeltaMs = H.NextDeadlineDeltaMs;
    First = false;
  }
  return Agg;
}

void RouterService::setWakeup(std::function<void()> Fn) {
  MutexLock Guard(Hub->M);
  Hub->UserFn = std::move(Fn);
}

RouterStats RouterService::stats() const {
  MutexLock Guard(M);
  RouterStats S;
  S.Routed = Routed;
  S.Spilled = Spilled;
  S.PerBackend = PerBackend;
  return S;
}
