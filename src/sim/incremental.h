// The reversible delta-evaluation engine: per-server aggregate state that
// updates under add/remove/move of one workload in O(slots), with verdicts
// (sim::required_capacity results) bit-identical to the batch oracle.
//
// Why this works (docs/algorithms.md §11): allocation traces are snapped to
// the 2^-20 CPU grid at construction (common/grid.h), so per-slot sums of
// registered workloads are computed *exactly* by plain double arithmetic as
// long as they stay under grid::kSumLimit. Exact sums are order-independent
// and reversible: after any sequence of adds and removes a server's per-slot
// aggregate holds the same bits the batch `sim::aggregate_workloads` would
// produce, and removing a workload restores the previous bits. Verdicts run
// through the same `sim::required_capacity` search as the batch path — a
// pure function of the aggregate that starts at its exact capacity floor —
// so a move re-verdicts in about one evaluate() pass over maintained sums
// instead of a search over a rebuilt aggregate.
//
// Inputs that break the exactness contract — workloads with off-grid values
// (hand-built test data, external feeds) or servers whose peak sums exceed
// grid::kSumLimit — are detected and served by the batch fallback: the
// aggregate is rebuilt from scratch in ascending-id order for every verdict,
// which is slower but still agrees with the oracle bit for bit. The
// `stats()` tallies (also exported as `sim.incremental.*` obs counters)
// report how often each path ran.
//
// The engine does not own trace data: register_workload borrows spans that
// must outlive the registration (placement borrows from its workload list,
// serve from the admitted App's allocation trace).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "qos/requirements.h"
#include "sim/simulator.h"
#include "trace/calendar.h"

namespace ropus::sim {

class IncrementalEvaluator {
 public:
  /// Counters for the delta-vs-batch split, mirrored into the obs registry.
  struct Stats {
    std::uint64_t verdict_cache_hits = 0;  // hosted set unchanged
    std::uint64_t delta_verdicts = 0;      // search over maintained sums
    std::uint64_t sum_rebuilds = 0;        // sums rebuilt before a verdict
    std::uint64_t batch_fallbacks = 0;     // off-grid / overflow verdicts
    std::uint64_t delta_probes = 0;        // probe() on the delta path
    std::uint64_t batch_probes = 0;        // probe() on the fallback path
  };

  /// One engine evaluates one pool: `server_cpus[s]` is server s's capacity
  /// limit. Workload traces must live on `calendar`.
  IncrementalEvaluator(const trace::Calendar& calendar,
                       const qos::CosCommitment& cos2,
                       std::vector<double> server_cpus,
                       double tolerance = 0.05);

  std::size_t server_count() const { return servers_.size(); }
  double server_cpus(std::size_t server) const { return servers_[server].cpus; }
  const trace::Calendar& calendar() const { return calendar_; }

  /// Registers (or re-registers) workload data under `id`. The spans must
  /// match the calendar length and stay valid until unregistration; the
  /// engine scans them once for peaks and the on-grid check. A hosted id
  /// cannot be re-registered.
  void register_workload(std::size_t id, std::span<const double> cos1,
                         std::span<const double> cos2);

  /// Forgets `id` (must not be hosted).
  void unregister_workload(std::size_t id);

  bool registered(std::size_t id) const {
    return id < workloads_.size() && workloads_[id].active;
  }

  /// Host of `id`, or npos when unhosted.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t host_of(std::size_t id) const {
    return id < workloads_.size() ? workloads_[id].host : npos;
  }

  /// Hosts `id` on `server` / removes it / moves it. O(slots) when the
  /// server's sums are maintained (the usual case), O(1) bookkeeping when
  /// they will be rebuilt anyway.
  void add(std::size_t id, std::size_t server);
  void remove(std::size_t id);
  void move(std::size_t id, std::size_t server);

  /// The ids hosted on `server`, ascending — stable storage until the next
  /// mutation of that server (callers use it to key memo lookups without a
  /// copy-and-sort).
  std::span<const std::size_t> hosted(std::size_t server) const {
    return servers_[server].ids;
  }

  /// The server's verdict for its current hosted set, computed lazily and
  /// cached until the set changes. Bit-identical to
  /// `required_capacity(aggregate_workloads(traces ascending by id), cpus)`.
  const RequiredCapacity& verdict(std::size_t server);

  /// The verdict `server` would have with `id` (unhosted) temporarily
  /// added; every bit of engine state is restored before returning.
  RequiredCapacity probe(std::size_t server, std::size_t id);

  const Stats& stats() const { return stats_; }

 private:
  struct Workload {
    std::span<const double> cos1;
    std::span<const double> cos2;
    double peak_cos1 = 0.0;
    double peak_total = 0.0;
    bool on_grid = false;
    bool active = false;
    std::size_t host = npos;
  };

  /// A queued, not-yet-applied mutation of a server's sums. Mutations are
  /// deferred so callers that resolve a verdict elsewhere (the placement
  /// memo) never pay the O(slots) series pass: the queue is flushed only
  /// when a verdict or probe actually needs the sums, and exactness makes
  /// late application bit-identical to eager application.
  struct PendingOp {
    std::size_t id;
    double sign;  // +1 add, -1 remove
  };

  struct Server {
    double cpus = 0.0;
    std::vector<std::size_t> ids;  // ascending
    // Exact per-slot sums; together with `pending` they reproduce the
    // hosted set exactly while sums_valid.
    std::vector<double> sum1;
    std::vector<double> sum2;
    std::vector<PendingOp> pending;  // queued add/remove series passes
    double sum_peak_cos1 = 0.0;
    double peak_cos1 = 0.0;
    // Conservative magnitude bookkeeping for the exactness bound; small
    // drift is irrelevant (it only feeds a threshold eight orders of
    // magnitude above real pools).
    double sum_peak_total = 0.0;
    std::size_t off_grid = 0;  // hosted workloads with off-grid values
    bool sums_valid = false;
    bool verdict_valid = false;
    RequiredCapacity verdict;
  };

  bool delta_eligible(const Server& s) const {
    return s.off_grid == 0 && s.sum_peak_total <= exact_limit_;
  }
  const Workload& workload_checked(std::size_t id) const;
  /// Adds (sign +1) or removes (sign -1) w's series into s's sums,
  /// recomputing the aggregate CoS1 peak in the same pass.
  void apply_series(Server& s, const Workload& w, double sign);
  /// Queues one series pass, cancelling against an opposite queued op for
  /// the same id (add-then-remove nets to nothing, exactly).
  static void queue_pending(Server& s, std::size_t id, double sign);
  /// Brings sums up to date with the hosted set: applies the pending queue
  /// (O(slots) per op) or rebuilds from scratch when that is cheaper or the
  /// sums are gone. Returns true when it rebuilt. Precondition:
  /// delta_eligible(s).
  bool ensure_sums(Server& s);
  void rebuild_sums(Server& s);
  AggregateView view_of(const Server& s) const;
  RequiredCapacity batch_verdict(const Server& s, const Workload* extra);

  trace::Calendar calendar_;
  qos::CosCommitment cos2_;
  double tolerance_;
  double exact_limit_;
  std::vector<Workload> workloads_;  // indexed by id
  std::vector<Server> servers_;
  // Fallback scratch (batch rebuilds), reused across calls.
  std::vector<double> scratch1_;
  std::vector<double> scratch2_;
  Stats stats_;
};

}  // namespace ropus::sim
