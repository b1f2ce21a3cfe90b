#include "placement/baselines.h"

#include <algorithm>
#include <numeric>

#include "common/rng.h"
#include "trace/correlation.h"

namespace ropus::placement {

namespace {

/// Greedy core: place workloads in `order`, choosing a server for each via
/// `pick(w, fits, hosted)`, which receives the workload, the servers it
/// fits on in ascending server order and each server's hosted workloads,
/// and returns the chosen index into `fits`. Fit checks ride the
/// delta-evaluation engine: each candidate is a probe() against the
/// server's maintained exact sums (memoized through the problem's shared
/// verdict memo), and the chosen server absorbs the workload in O(slots)
/// instead of re-aggregating its whole hosted set. The context is leased
/// from the problem's pool, so a search that follows on the same problem
/// (consolidate's genetic search) reuses it.
template <typename Picker>
std::optional<Assignment> greedy_place(const PlacementProblem& problem,
                                       std::span<const std::size_t> order,
                                       Picker pick) {
  const std::size_t servers = problem.server_count();
  ContextLease ctx(problem);
  ctx->clear();
  std::vector<std::vector<std::size_t>> hosted(servers);
  Assignment result(problem.workload_count());

  for (std::size_t w : order) {
    struct Candidate {
      std::size_t server;
      double required;
      double capacity;
    };
    std::vector<Candidate> fits;
    for (std::size_t s = 0; s < servers; ++s) {
      const ServerVerdict v = ctx->probe(s, w);
      if (v.fits) {
        fits.push_back({s, v.capacity, problem.servers()[s].capacity()});
      }
    }
    if (fits.empty()) return std::nullopt;
    const std::size_t choice = pick(w, fits, hosted);
    ctx->add(w, fits[choice].server);
    hosted[fits[choice].server].push_back(w);
    result[w] = fits[choice].server;
  }
  return result;
}

std::vector<std::size_t> identity_order(std::size_t n) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  return order;
}

std::vector<std::size_t> decreasing_peak_order(
    const PlacementProblem& problem) {
  std::vector<std::size_t> order = identity_order(problem.workload_count());
  std::stable_sort(order.begin(), order.end(),
                   [&problem](std::size_t a, std::size_t b) {
                     return problem.workload(a).peak_allocation() >
                            problem.workload(b).peak_allocation();
                   });
  return order;
}

/// The lowest-index server that fits: `fits` is in ascending server order.
constexpr auto first_fitting = [](std::size_t, const auto&,
                                  const auto&) -> std::size_t { return 0; };

}  // namespace

std::optional<Assignment> first_fit(const PlacementProblem& problem) {
  return greedy_place(problem, identity_order(problem.workload_count()),
                      first_fitting);
}

std::optional<Assignment> first_fit_decreasing(
    const PlacementProblem& problem) {
  return greedy_place(problem, decreasing_peak_order(problem), first_fitting);
}

std::optional<Assignment> best_fit_decreasing(
    const PlacementProblem& problem) {
  return greedy_place(
      problem, decreasing_peak_order(problem),
      [](std::size_t, const auto& fits, const auto& hosted) -> std::size_t {
        // Prefer already-used servers with the least remaining headroom;
        // fall back to the first empty server.
        std::size_t best = fits.size();
        double best_headroom = 0.0;
        for (std::size_t i = 0; i < fits.size(); ++i) {
          if (hosted[fits[i].server].empty()) continue;
          const double headroom = fits[i].capacity - fits[i].required;
          if (best == fits.size() || headroom < best_headroom) {
            best = i;
            best_headroom = headroom;
          }
        }
        return best == fits.size() ? 0 : best;
      });
}

std::optional<Assignment> correlation_aware_greedy(
    const PlacementProblem& problem) {
  const std::size_t n = problem.workload_count();
  // Total allocation series per workload, then the pairwise correlations.
  std::vector<trace::DemandTrace> totals;
  totals.reserve(n);
  for (std::size_t w = 0; w < n; ++w) {
    const qos::AllocationTrace& a = problem.workload(w);
    std::vector<double> v(a.size());
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = a.total(i);
    totals.emplace_back(a.name(), a.calendar(), std::move(v));
  }
  const auto corr = trace::correlation_matrix(totals);

  return greedy_place(
      problem, decreasing_peak_order(problem),
      [&corr](std::size_t w, const auto& fits,
              const auto& hosted) -> std::size_t {
        // Among used servers, the lowest mean correlation to its residents;
        // the first empty server is the fallback.
        std::size_t best = fits.size();
        double best_corr = 0.0;
        for (std::size_t i = 0; i < fits.size(); ++i) {
          const std::vector<std::size_t>& residents = hosted[fits[i].server];
          if (residents.empty()) continue;
          double mean_corr = 0.0;
          for (std::size_t other : residents) mean_corr += corr[w][other];
          mean_corr /= static_cast<double>(residents.size());
          if (best == fits.size() || mean_corr < best_corr) {
            best = i;
            best_corr = mean_corr;
          }
        }
        return best == fits.size() ? 0 : best;
      });
}

std::optional<Assignment> random_search(const PlacementProblem& problem,
                                        std::size_t restarts,
                                        std::uint64_t seed) {
  ROPUS_REQUIRE(restarts >= 1, "need at least one restart");
  Rng rng(seed);
  ContextLease ctx(problem);
  std::optional<Assignment> best;
  double best_score = 0.0;
  for (std::size_t r = 0; r < restarts; ++r) {
    Assignment a(problem.workload_count());
    for (std::size_t& gene : a) {
      gene = rng.uniform_index(problem.server_count());
    }
    const PlacementEvaluation ev = ctx->evaluate(a);
    if (ev.feasible && (!best || ev.score > best_score)) {
      best = a;
      best_score = ev.score;
    }
  }
  return best;
}

}  // namespace ropus::placement
