// PlacementProblem: shared evaluation context for all placement algorithms.
//
// Wraps the workload set, the server pool, and the CoS2 commitment; exposes
// the Section VI-B objective:
//   +1                for an unused server,
//   f(U) = U^(2 Z)    for a used server whose commitments fit
//                     (U = R / L, Z = CPUs on the server),
//   -N                for an overbooked server hosting N workloads.
//
// Workloads built from qos::WorkloadAllocations also carry the Section IX
// attributes — memory, disk and network bandwidth — as guaranteed demand:
// a server fits only if each attribute's aggregate peak stays within the
// server's capacity, and U becomes the tightest attribute's ratio, so a
// memory-bound server is not rewarded for idle CPUs. CPU-only workloads
// carry none, and the objective reduces to the paper's.
//
// Per-server verdicts are memoized on the (workload set, CPU count) key —
// most subsets repeat across genetic generations. The memo stores the CPU
// verdict and the attribute peaks, neither of which depends on the
// server's other capacities; the attribute check against a particular
// server happens when the verdict is scored. A problem derived on another
// pool (the failure sweep's survivors) shares its base's memo: the two
// share workloads and commitment, and the key holds the rest of
// what a verdict depends on. Memo misses are served by the
// reversible delta-evaluation engine (sim/incremental.h) through
// DeltaPlacementContext: a searcher's context mutates per-server exact sums
// in O(slots) per moved workload and re-verdicts only the servers an
// assignment actually changed, with bits identical to the batch path (the
// problem's evaluate() here remains the oracle the equivalence tests pin
// against).
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "placement/assignment.h"
#include "placement/model.h"
#include "qos/allocation.h"
#include "qos/workload_allocations.h"
#include "sim/incremental.h"
#include "sim/server.h"
#include "sim/simulator.h"

namespace ropus::placement {

class DeltaPlacementContext;

class PlacementProblem {
 public:
  /// CPU-only placement (the paper's case study). `workloads` and `servers`
  /// must outlive the problem. All workload calendars must match. Throws
  /// InvalidArgument on an empty pool or mismatched calendars.
  PlacementProblem(std::span<const qos::AllocationTrace> workloads,
                   std::vector<sim::ServerSpec> servers,
                   qos::CosCommitment cos2);

  /// Multi-attribute placement (Section IX): each workload's CPU allocation
  /// plus the attribute demand it carries, checked against each server's
  /// attribute capacities. Same lifetime and calendar rules.
  PlacementProblem(std::span<const qos::WorkloadAllocations> workloads,
                   std::vector<sim::ServerSpec> servers,
                   qos::CosCommitment cos2);

  /// `base`'s workloads and commitment on another pool, sharing
  /// `base`'s verdict memo (each problem keeps its own context pool). The
  /// base's workloads must outlive this problem; the base itself need not.
  PlacementProblem(const PlacementProblem& base,
                   std::vector<sim::ServerSpec> servers);

  std::size_t workload_count() const { return cpu_.size(); }
  std::size_t server_count() const { return servers_.size(); }
  const std::vector<sim::ServerSpec>& servers() const { return servers_; }
  const qos::CosCommitment& cos2() const { return cos2_; }

  /// Workload `id`'s CPU allocation trace.
  const qos::AllocationTrace& workload(std::size_t id) const {
    return *cpu_[id];
  }

  /// Sum of per-application peak allocation requests — Table I's C_peak.
  double total_peak_allocation() const;

  /// Full batch evaluation of an assignment (validates it first) — the
  /// oracle the delta context is pinned against.
  PlacementEvaluation evaluate(const Assignment& a) const;

  /// First-fit-decreasing (see baselines.h) as the greedy seed; nullopt
  /// when some workload fits nowhere.
  std::optional<Assignment> greedy_seed() const;

  /// Pooled checkout of a delta context for one worker's exclusive use;
  /// pair with release_context, or hold a ContextLease. Released contexts
  /// are kept and handed out again, so back-to-back searches skip engine
  /// construction and workload registration; a new one is built only when
  /// the pool is empty. Engine state carried between checkouts never
  /// changes results, only how much work a verdict costs. The problem must
  /// outlive every context it hands out.
  std::unique_ptr<DeltaPlacementContext> acquire_context() const;
  void release_context(std::unique_ptr<DeltaPlacementContext> ctx) const;

  /// Verdict of `server` hosting `workload_ids`, judged on every attribute
  /// (memoized). Sorted or unsorted input accepted.
  ServerVerdict server_required_capacity(std::vector<std::size_t> workload_ids,
                                         const sim::ServerSpec& server) const;

  /// f(U) = U^(2 Z) — exposed for tests and the mutation heuristic.
  static double utilization_score(double utilization, std::size_t cpus);

  /// Entries in the verdict memo, which derived problems share.
  std::size_t cache_entries() const {
    const std::shared_lock<std::shared_mutex> lock(memo_->mutex);
    return memo_->map.size();
  }

 private:
  friend class DeltaPlacementContext;
  struct Memo;

  PlacementProblem(std::vector<const qos::AllocationTrace*> cpu,
                   std::span<const qos::WorkloadAllocations> attributed,
                   std::vector<sim::ServerSpec> servers,
                   qos::CosCommitment cos2, std::shared_ptr<Memo> memo);

  /// Memo lookup by borrowed key — no allocation on a hit.
  bool memo_find(std::span<const std::size_t> sorted_ids, std::size_t cpus,
                 ServerVerdict& out) const;
  /// Inserts (first writer wins; concurrent values are identical anyway —
  /// verdicts are pure functions of the key).
  void memo_store(std::span<const std::size_t> sorted_ids, std::size_t cpus,
                  ServerVerdict v) const;

  /// `v` (a memo value: `fits` covers the CPU commitment) judged on `spec`:
  /// it fits only if every attribute's peak also stays within the server's
  /// capacity — guaranteed demand, padded by slo::kCapacityEps.
  static ServerVerdict judged(ServerVerdict v, const sim::ServerSpec& spec);

  /// Scores one server given its memo verdict, identically for the batch
  /// and delta paths — the single place the objective arithmetic lives.
  static void score_server(ServerEvaluation& se, const ServerVerdict& v,
                           const sim::ServerSpec& spec,
                           PlacementEvaluation& ev);

  std::vector<const qos::AllocationTrace*> cpu_;  // indexed by workload id
  std::span<const qos::WorkloadAllocations> attributed_;  // empty: CPU only
  std::vector<sim::ServerSpec> servers_;
  qos::CosCommitment cos2_;
  trace::Calendar calendar_;

  struct MemoKey {
    std::vector<std::size_t> ids;  // sorted
    std::size_t cpus;
  };
  struct MemoHash {
    using is_transparent = void;
    std::size_t operator()(const MemoKey& k) const;
    std::size_t operator()(
        const std::pair<std::span<const std::size_t>, std::size_t>& k) const;
  };
  struct MemoEq {
    using is_transparent = void;
    bool operator()(const MemoKey& a, const MemoKey& b) const;
    bool operator()(
        const std::pair<std::span<const std::size_t>, std::size_t>& a,
        const MemoKey& b) const;
  };
  // The memo is a performance detail invisible to callers. The lock makes
  // evaluate() safe from concurrent threads (the genetic search evaluates a
  // generation's offspring in parallel); lookups share it, inserts take it
  // exclusively.
  struct Memo {
    std::shared_mutex mutex;
    std::unordered_map<MemoKey, ServerVerdict, MemoHash, MemoEq> map;
  };
  std::shared_ptr<Memo> memo_;  // shared with derived problems

  // Idle contexts for acquire_context()/release_context().
  mutable std::mutex context_pool_mutex_;
  mutable std::vector<std::unique_ptr<DeltaPlacementContext>> context_pool_;
};

/// One searcher's handle on the delta-evaluation engine. evaluate() diffs
/// the incoming assignment against the engine's current hosting, moves only
/// the changed workloads (O(slots) each), and asks the problem's shared
/// memo before re-verdicting a server — unchanged servers never reach the
/// engine. probe()/add() expose the greedy placers' shape: "what would this
/// server's verdict be with workload w added" without copying hosted sets
/// around. NOT thread-safe; one context per worker, leased from the
/// problem's pool (PlacementProblem::acquire_context, ContextLease).
class DeltaPlacementContext {
 public:
  /// Bit-identical to problem.evaluate(a), incrementally, whatever the
  /// context evaluated before.
  PlacementEvaluation evaluate(const Assignment& a);

  /// Verdict of `server` with currently-unhosted `workload` added, judged
  /// on every attribute; engine state is unchanged. Memoized through the
  /// problem's shared memo.
  ServerVerdict probe(std::size_t server, std::size_t workload);

  /// Hosts `workload` on `server` (it must be unhosted — evaluate() hosts
  /// everything, so probe/add start from a clear()ed context).
  void add(std::size_t workload, std::size_t server);

  /// Removes `workload` from its server (exact-residue: the server's sums
  /// return to their previous bits).
  void remove(std::size_t workload);

  /// Unhosts every workload. Each removal is O(1) bookkeeping, and one
  /// still queued cancels the queued add it undoes.
  void clear();

  const sim::IncrementalEvaluator& engine() const { return engine_; }

 private:
  friend class PlacementProblem;  // builds contexts for its pool
  explicit DeltaPlacementContext(const PlacementProblem& problem);

  const PlacementProblem& problem_;
  sim::IncrementalEvaluator engine_;
  std::vector<std::size_t> probe_key_;  // scratch for probe() memo lookups
};

/// Checks a delta context out of a problem's pool for one scope, returning
/// it on exit (including when the scope throws). Which pooled context a
/// lease gets never changes results — contexts return bit-identical
/// evaluations whatever their history — so a handout order that varies
/// under contention keeps searches deterministic at any thread count.
class ContextLease {
 public:
  explicit ContextLease(const PlacementProblem& problem)
      : problem_(problem), ctx_(problem.acquire_context()) {}
  ~ContextLease() { problem_.release_context(std::move(ctx_)); }
  ContextLease(const ContextLease&) = delete;
  ContextLease& operator=(const ContextLease&) = delete;

  DeltaPlacementContext& operator*() { return *ctx_; }
  DeltaPlacementContext* operator->() { return ctx_.get(); }

 private:
  const PlacementProblem& problem_;
  std::unique_ptr<DeltaPlacementContext> ctx_;
};

}  // namespace ropus::placement
