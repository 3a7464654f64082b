//===- service/RouterService.h - Sharded service router ---------*- C++ -*-===//
//
// Part of the Regel reproduction. The first concrete realization of the
// ROADMAP's sharding north-star: one SynthService composed of N backend
// SynthServices — today N in-process LocalServices, and, via
// RemoteService, N separate server processes; the router cannot tell the
// difference, which is the point of the service seam.
//
// Routing policy, in order:
//
//   * Cache-key affinity: a job's sketches hash to a stable affinity key
//     (mix64-folded structural Sketch::hash), and key % N picks the home
//     shard. The regex->DFA traffic a sketch generates is a function of
//     the sketch, so pinning a given regex/sketch to one shard keeps its
//     compiled DFAs hot in THAT shard's store instead of duplicating them
//     across every backend — the property that lets N small caches behave
//     like one big one.
//
//   * Least-estimated-wait spillover: affinity must not pin work to a
//     drowning shard. Each backend's health() exposes EstWaitMs (queue
//     depth x blended EWMA service time / workers — the PR-4 estimator
//     snapshot); when the home shard's estimated wait exceeds the
//     least-loaded backend's by more than SpillMarginMs, the job spills
//     to the least-loaded backend, trading cache affinity for latency
//     only when the imbalance is worth more than a recompile.
//
// Tickets are router-scoped: the router remaps each backend's ticket
// space into its own, so callers see one service. Completion delivery,
// single-consumer and wakeup contracts are exactly SynthService's; the
// router registers itself as each backend's consumer/wakeup, so backends
// must not be shared with another poller.
//
//===----------------------------------------------------------------------===//

#ifndef REGEL_SERVICE_ROUTERSERVICE_H
#define REGEL_SERVICE_ROUTERSERVICE_H

#include "service/SynthService.h"
#include "support/Mutex.h"

#include <condition_variable>
#include <memory>
#include <unordered_map>

namespace regel::service {

struct RouterConfig {
  /// Spillover threshold in ms: route away from the affinity shard when
  /// its estimated wait exceeds the least-loaded backend's by more than
  /// this. Negative disables spillover (pure affinity hashing).
  double SpillMarginMs = 100.0;
};

/// Point-in-time routing counters (monitoring and tests).
struct RouterStats {
  uint64_t Routed = 0;  ///< total submissions routed
  uint64_t Spilled = 0; ///< routed off their affinity shard by load
  std::vector<uint64_t> PerBackend; ///< submissions per backend
};

class RouterService : public SynthService {
public:
  /// \p Backends must be non-empty; the router becomes each backend's
  /// single completion consumer and wakeup target.
  explicit RouterService(std::vector<std::shared_ptr<SynthService>> Backends,
                         RouterConfig Cfg = RouterConfig());

  Ticket submit(engine::JobRequest R) override;
  bool cancel(Ticket T) override;
  std::vector<Completion> pollCompleted() override;
  std::vector<Completion> waitCompleted(int64_t TimeoutMs) override;

  /// Composite taken AT CALL TIME: routing counters, one labeled entry
  /// per backend ({"backend":N,"stats":...}), and a "merged" fleet
  /// snapshot folded from every backend that can produce a structured
  /// one (statsSnapshot) — counters summed, estimator figures
  /// sample-weighted. Blob-only backends stay visible in the labeled
  /// array and are counted out of "merged_backends".
  std::string statsJson() const override;

  /// Fleet snapshot: every structured backend merged. False when no
  /// backend could produce one.
  bool statsSnapshot(engine::StatsSnapshot &Out) const override;

  /// Aggregate: summed depth/workers, min EstWaitMs (what a new
  /// submission would see after routing), min NextDeadlineDeltaMs,
  /// Healthy iff every backend is.
  ServiceHealth health() const override;

  /// Federated exposition: every backend's metricsText absorbed into one
  /// scratch registry (counters sum, histograms merge bucket-wise — the
  /// fleet percentile is computed over the union of samples, never an
  /// average of per-shard percentiles) plus the router's own routing
  /// counters (regel_router_*).
  std::string metricsText() const override;

  /// Asks each backend in turn; first non-empty answer wins. In-process
  /// tracers allocate disjoint id blocks (see obs::Tracer), so at most
  /// one local backend knows a given id; separate server processes can
  /// collide, in which case the first match is returned.
  std::string traceJson(uint64_t Id) const override;

  void setWakeup(std::function<void()> Fn) override;

  /// The affinity key of \p R: mix64-folded structural sketch hashes.
  /// Stable across processes for a given sketch list.
  static uint64_t affinityKey(const engine::JobRequest &R);

  /// The backend index submit() would route \p R to right now (affinity
  /// plus the current spillover view). Exposed for tests and tracing.
  size_t pickBackend(const engine::JobRequest &R) const;

  size_t backendCount() const { return Backends.size(); }
  RouterStats stats() const;

private:
  std::vector<std::shared_ptr<SynthService>> Backends;
  RouterConfig Cfg;

  /// Internal wakeup state: backend completions land here (and forward
  /// to the user hook) so waitCompleted can block across N backends.
  struct WakeHub {
    Mutex M;
    std::condition_variable CV;
    bool Pending REGEL_GUARDED_BY(M) = false;
    std::function<void()> UserFn REGEL_GUARDED_BY(M);
    /// CV-wait predicate: every call site holds M (house convention,
    /// see support/ThreadAnnotations.h).
    bool pendingPred() const REGEL_NO_THREAD_SAFETY_ANALYSIS {
      return Pending;
    }
  };
  std::shared_ptr<WakeHub> Hub;

  /// pickBackend with the affinity home precomputed (submit computes
  /// the key once and shares it with the spill accounting, so the
  /// "home shard" definition cannot drift between the two).
  size_t pickFrom(size_t Home) const;

  mutable Mutex M;
  Ticket NextTicket REGEL_GUARDED_BY(M) = 1;
  struct Route {
    size_t Backend;
    Ticket BackendTicket;
  };
  std::unordered_map<Ticket, Route> Out REGEL_GUARDED_BY(M);
  std::vector<std::unordered_map<Ticket, Ticket>> In REGEL_GUARDED_BY(M);
  /// Completions whose router ticket is already resolved, awaiting the
  /// next drain (stash hits land here).
  std::vector<Completion> Ready REGEL_GUARDED_BY(M);
  /// Per backend: completions that arrived before their submit()
  /// finished inserting the In mapping (M is deliberately NOT held
  /// across the backend submit call, so a synchronously-completing or
  /// very fast job can be drained first). Matched by the tail of
  /// submit(); entries left when no submit is in flight are foreign and
  /// dropped.
  std::vector<std::vector<Completion>> Stash REGEL_GUARDED_BY(M);
  /// Submits that have allocated a ticket but not yet inserted their
  /// mapping, per backend (bounds Stash).
  std::vector<unsigned> InFlightSubmits REGEL_GUARDED_BY(M);
  uint64_t Routed REGEL_GUARDED_BY(M) = 0;
  uint64_t Spilled REGEL_GUARDED_BY(M) = 0;
  std::vector<uint64_t> PerBackend REGEL_GUARDED_BY(M);
};

} // namespace regel::service

#endif // REGEL_SERVICE_ROUTERSERVICE_H
