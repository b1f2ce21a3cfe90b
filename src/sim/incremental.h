// The reversible delta-evaluation engine: per-server aggregate state that
// updates under add/remove/move of one workload in O(slots), with verdicts
// (sim::required_capacity results) bit-identical to the batch oracle.
//
// Why this works: allocation traces hold multiples of 2^-20 CPU
// (common/grid.h), so per-slot sums of registered workloads are computed
// *exactly* by plain double arithmetic as long as they stay under
// grid::kSumLimit. Exact sums are order-independent and reversible: after
// any sequence of adds and removes a server's per-slot aggregate holds the
// same bits the batch `sim::aggregate_workloads` would produce, and
// removing a workload restores the previous bits. Verdicts run through the
// same `sim::required_capacity` search as the batch path — a pure function
// of the aggregate whose answer is its exact capacity floor — so a move
// re-verdicts in one pass of the floors over maintained sums, with no
// replay and no rebuilt aggregate.
//
// The contract is stated once, in docs/algorithms.md §11 ("The
// precondition"): the allocation types snap every value where it is made,
// and register_workload keeps the summed peaks of all registered workloads
// below grid::kSumLimit, which bounds every per-slot sum a server or a
// probe can reach.
//
// The Section IX attributes (memory, disk, network) are guaranteed demand:
// their verdict is the peak of the aggregate per-slot demand. The engine
// keeps one exact per-slot sum column per non-CPU attribute that some
// registered workload carries — resource-major, so a CPU-only pool
// allocates none — and every verdict and probe reports each column's peak.
//
// The engine does not own trace data: register_workload borrows the
// allocation's buffers, which must outlive the registration. It keeps
// spans, not the allocation's address, so the object may move (serve's
// admitted apps live in a vector) while its buffers stay put.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "qos/allocation.h"
#include "qos/requirements.h"
#include "qos/workload_allocations.h"
#include "sim/simulator.h"
#include "trace/attribute.h"
#include "trace/calendar.h"

namespace ropus::sim {

/// One value per capacity attribute, indexed by trace::attribute_index.
/// Where it holds non-CPU peaks the kCpu entry is unused (0).
using AttributePeaks = std::array<double, trace::kAttributeCount>;

class IncrementalEvaluator {
 public:
  /// Counters for how verdicts were served, mirrored into the obs registry.
  struct Stats {
    std::uint64_t delta_verdicts = 0;  // search over maintained sums
    std::uint64_t sum_rebuilds = 0;    // sums rebuilt before a verdict
    std::uint64_t delta_probes = 0;    // probe() calls
  };

  /// A server's verdict: the CPU search and, per attribute column, the
  /// peak of the aggregate per-slot demand (0 where no hosted workload
  /// carries the attribute).
  struct Verdict {
    RequiredCapacity cpu;
    AttributePeaks peaks{};
  };

  /// One engine evaluates one pool: `server_cpus[s]` is server s's capacity
  /// limit. Workload traces must live on `calendar`.
  IncrementalEvaluator(const trace::Calendar& calendar,
                       const qos::CosCommitment& cos2,
                       std::vector<double> server_cpus);

  std::size_t server_count() const { return servers_.size(); }
  double server_cpus(std::size_t server) const { return servers_[server].cpus; }
  const trace::Calendar& calendar() const { return calendar_; }

  /// Registers `alloc` under `id`, which must not be registered. The
  /// allocation must live on the engine's calendar and its buffers stay
  /// valid until unregistration; the engine reads its stored peaks and no
  /// per-slot value. Throws InvalidArgument, leaving the engine unchanged,
  /// when the summed peaks of all registered workloads would reach
  /// grid::kSumLimit on CPU (CoS1 + CoS2) or on any attribute — which also
  /// refuses an allocation that overflowed to +inf.
  void register_workload(std::size_t id, const qos::AllocationTrace& alloc);
  /// The same, with every Section IX attribute `alloc` carries; an
  /// attribute trace's peak() is one pass over its values.
  void register_workload(std::size_t id,
                         const qos::WorkloadAllocations& alloc);

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

  /// Hosts `id` on `server` / removes it / moves it. O(1) bookkeeping; the
  /// O(slots) series pass is deferred until a verdict or probe needs it.
  void add(std::size_t id, std::size_t server);
  void remove(std::size_t id);
  void move(std::size_t id, std::size_t server);

  /// The ids hosted on `server`, ascending — stable storage until the next
  /// mutation of that server (callers use it to key memo lookups without a
  /// copy-and-sort).
  std::span<const std::size_t> hosted(std::size_t server) const {
    return servers_[server].ids;
  }

  /// The server's verdict for its current hosted set. `cpu` is
  /// bit-identical to `required_capacity(aggregate_workloads(traces
  /// ascending by id), cpus)`, and each peak to the peak of the attribute's
  /// per-slot sum in the same order.
  Verdict verdict(std::size_t server);

  /// The verdict `server` would have with `id` (unhosted) temporarily
  /// added; every bit of engine state is restored before returning. A grid
  /// cap `max_k` ends the search as in required_capacity: the verdict is
  /// the uncapped one when that fits at or below max_k * kCapacityStep,
  /// and does not fit otherwise.
  Verdict probe(std::size_t server, std::size_t id,
                std::int64_t max_k = kUncapped);

  /// A lower bound on probe(server, id).cpu.capacity, +inf only where that
  /// probe does not fit. It comes from the largest CoS1 peak among the
  /// hosted workloads and `id`, the §VI-A precheck on their summed CoS1
  /// peaks, and slo::theta_group_bound on their summed requested CoS2 per
  /// (week, slot-of-day) group. Each workload's group sums are computed
  /// the first time a bound needs them and kept until it is unregistered;
  /// the server's sums are not flushed. Throws InvalidArgument where the
  /// uncapped probe would refuse the search range.
  double probe_bound(std::size_t server, std::size_t id);

  const Stats& stats() const { return stats_; }

 private:
  struct Workload {
    std::span<const double> cos1;
    std::span<const double> cos2;
    /// Per attribute, indexed like AttributePeaks; empty where the
    /// workload carries none (and always for kCpu).
    std::array<std::span<const double>, trace::kAttributeCount> attributes;
    double peak_cos1 = 0.0;
    /// The registration budget: kCpu holds the peak of cos1 + cos2, the
    /// other entries each carried attribute's peak.
    AttributePeaks peaks{};
    /// Requested CoS2 per (week, slot-of-day) group; empty until
    /// probe_bound first needs it.
    std::vector<double> group_cos2;
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
    // hosted set exactly.
    std::vector<double> sum1;
    std::vector<double> sum2;
    // One exact per-slot sum per attribute in `columns_`, indexed by
    // trace::attribute_index (entries for other attributes stay empty).
    std::array<std::vector<double>, trace::kAttributeCount> columns;
    std::vector<PendingOp> pending;  // queued add/remove series passes
    double sum_peak_cos1 = 0.0;
    double peak_cos1 = 0.0;
    AttributePeaks peaks{};  // per-column peak of the maintained sums
  };

  /// Registers `cpu` under `id`, with the attributes of `attributed`
  /// (its owner) when not null.
  void insert(std::size_t id, const qos::AllocationTrace& cpu,
              const qos::WorkloadAllocations* attributed);
  const Workload& workload_checked(std::size_t id) const;
  /// w's requested CoS2 per group, summed on first use.
  const std::vector<double>& group_cos2(Workload& w);
  /// Applies s's queued ops to its sums (onto zeroed sums when
  /// `rebuild`) in one blocked pass per sum column. With `peaks` it sets
  /// the aggregate CoS1 peak and the peak of every column the pass
  /// changed, once per flush.
  void flush(Server& s, bool rebuild, bool peaks);
  /// Queues one series pass, cancelling against an opposite queued op for
  /// the same id (add-then-remove nets to nothing, exactly).
  static void queue_pending(Server& s, std::size_t id, double sign);
  /// Brings sums up to date with the hosted set: flushes the pending queue
  /// (O(slots) per op), or rebuilds from scratch when the queue is as long
  /// as the hosted set. Returns true when it rebuilt.
  bool ensure_sums(Server& s);
  AggregateView view_of(const Server& s) const;

  trace::Calendar calendar_;
  qos::CosCommitment cos2_;
  std::vector<Workload> workloads_;  // indexed by id
  std::vector<Server> servers_;
  /// Attributes with a sum column on every server, ascending.
  std::vector<trace::Attribute> columns_;
  /// Summed peaks of all registered workloads, per column; each stays
  /// below grid::kSumLimit, which keeps every per-slot sum exact.
  AttributePeaks registered_{};
  Stats stats_;
};

}  // namespace ropus::sim
