#include "placement/exact.h"

#include <algorithm>
#include <numeric>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace ropus::placement {

namespace {

/// Servers with equal CPU counts and attribute capacities are
/// interchangeable when empty.
bool same_shape(const sim::ServerSpec& a, const sim::ServerSpec& b) {
  return a.cpus == b.cpus && a.memory_gb == b.memory_gb &&
         a.disk_mbps == b.disk_mbps && a.network_mbps == b.network_mbps;
}

struct SearchState {
  const PlacementProblem& problem;
  // Fit checks ride the delta engine: the DFS probes a candidate server in
  // O(slots), commits with add() on descent and undoes with remove() on
  // backtrack (exact-residue removal restores the server's sums bit for
  // bit), instead of re-aggregating the hosted set at every node.
  ContextLease ctx;
  std::vector<std::size_t> order;  // workloads, decreasing peak allocation
  std::vector<std::vector<std::size_t>> hosted;  // per server
  Assignment current;
  std::size_t used = 0;

  ExactResult best;
  std::size_t node_limit;
  bool aborted = false;

  bool homogeneous = true;

  explicit SearchState(const PlacementProblem& p, std::size_t limit)
      : problem(p),
        ctx(p),
        hosted(p.server_count()),
        current(p.workload_count(), 0),
        node_limit(limit) {
    ctx->clear();
    order.resize(p.workload_count());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&p](std::size_t a, std::size_t b) {
                       return p.workload(a).peak_allocation() >
                              p.workload(b).peak_allocation();
                     });
    for (const sim::ServerSpec& s : p.servers()) {
      if (!same_shape(s, p.servers().front())) homogeneous = false;
    }
  }

  void dfs(std::size_t depth) {
    if (aborted) return;
    if (node_limit != 0 && best.nodes_explored >= node_limit) {
      aborted = true;
      return;
    }
    best.nodes_explored += 1;

    // Bound: even if every remaining workload fits into used servers, we
    // cannot beat an incumbent that already uses fewer or equal servers.
    if (best.assignment.has_value() && used >= best.servers_used) return;

    if (depth == order.size()) {
      best.assignment = current;
      best.servers_used = used;
      return;
    }

    const std::size_t w = order[depth];
    bool opened_empty = false;
    for (std::size_t s = 0; s < problem.server_count(); ++s) {
      const bool empty = hosted[s].empty();
      if (empty) {
        // Symmetry breaking: identical empty servers are interchangeable,
        // so only try the first one (exact for homogeneous pools; for
        // heterogeneous pools, try the first empty server of each shape).
        if (opened_empty && homogeneous) continue;
        if (!homogeneous) {
          bool seen_same_shape = false;
          for (std::size_t t = 0; t < s; ++t) {
            if (hosted[t].empty() &&
                same_shape(problem.servers()[t], problem.servers()[s])) {
              seen_same_shape = true;
              break;
            }
          }
          if (seen_same_shape) continue;
        }
      }
      if (ctx->probe(s, w).fits) {
        ctx->add(w, s);
        hosted[s].push_back(w);
        current[w] = s;
        used += empty ? 1 : 0;
        dfs(depth + 1);
        used -= empty ? 1 : 0;
        hosted[s].pop_back();
        ctx->remove(w);
      }
      if (empty) opened_empty = true;
      if (aborted) return;
    }
  }
};

}  // namespace

ExactResult exact_min_servers(const PlacementProblem& problem,
                              std::size_t node_limit) {
  static obs::Counter& searches = obs::counter("placement.exact.searches");
  static obs::Counter& nodes = obs::counter("placement.exact.nodes");
  static obs::Histogram& search_seconds =
      obs::histogram("placement.exact.search_seconds");
  searches.add(1);
  obs::ScopedSpan span("placement.exact_min_servers");
  obs::ScopedTimer timer(search_seconds);

  SearchState state(problem, node_limit);
  state.dfs(0);
  state.best.exhausted = !state.aborted;
  nodes.add(state.best.nodes_explored);
  return state.best;
}

}  // namespace ropus::placement
