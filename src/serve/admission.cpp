#include "serve/admission.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/error.h"

namespace ropus::serve {

void AdmissionPolicy::validate() const {
  ROPUS_REQUIRE(revenue_per_cpu >= 0.0, "revenue rate must be >= 0");
  ROPUS_REQUIRE(penalty_per_cpu >= 0.0, "penalty rate must be >= 0");
  ROPUS_REQUIRE(headroom_margin > 0.0 && headroom_margin < 1.0,
                "headroom margin must be in (0, 1)");
  ROPUS_REQUIRE(renegotiate_m > 0.0 && renegotiate_m <= 100.0,
                "renegotiated M must be in (0, 100]");
  ROPUS_REQUIRE(renegotiate_tdegr >= 0.0, "renegotiated T_degr must be >= 0");
}

AdmissionOutcome place_candidate(sim::IncrementalEvaluator& engine,
                                 std::size_t candidate_id,
                                 double candidate_peak, double revenue_weight,
                                 const AdmissionPolicy& policy) {
  policy.validate();
  const auto headroom_at = [&](std::size_t s, double capacity) {
    const double cpus = engine.server_cpus(s);
    return cpus > 0.0 ? (cpus - capacity) / cpus : 0.0;
  };
  // Each server's headroom can be no more than at its probe's lower bound,
  // and is -inf where the bound says the candidate does not fit. Servers
  // are probed from the highest such bound down, ties on the lower index.
  struct Bound {
    double headroom;
    std::size_t server;
  };
  std::vector<Bound> order;
  order.reserve(engine.server_count());
  for (std::size_t s = 0; s < engine.server_count(); ++s) {
    const double capacity = engine.probe_bound(s, candidate_id);
    order.push_back({std::isinf(capacity)
                         ? -std::numeric_limits<double>::infinity()
                         : headroom_at(s, capacity),
                     s});
  }
  std::ranges::sort(order, [](const Bound& a, const Bound& b) {
    return a.headroom > b.headroom ||
           (a.headroom == b.headroom && a.server < b.server);
  });

  // Best-fit by headroom, ties on the lower server index: the largest value
  // of an exact function of the server, which no bound understates, so the
  // order and the early stop leave the choice and its bits unchanged.
  AdmissionOutcome best;
  bool any_fit = false;
  for (const Bound& b : order) {
    if (b.headroom == -std::numeric_limits<double>::infinity()) break;
    // Nothing from here on can beat the best, or tie it at a lower index.
    if (any_fit && (b.headroom < best.headroom ||
                    (b.headroom == best.headroom && b.server > best.host))) {
      break;
    }
    // Past the largest grid point at which this server would tie the best,
    // it loses, so its search stops there. At a best of 0 headroom the
    // server's own (perhaps off-grid) capacity could still tie.
    std::int64_t cap = sim::kUncapped;
    if (any_fit && best.headroom > 0.0) {
      const double cpus = engine.server_cpus(b.server);
      const auto ties = [&](std::int64_t k) {
        return headroom_at(b.server,
                           static_cast<double>(k) * sim::kCapacityStep) >=
               best.headroom;
      };
      cap = static_cast<std::int64_t>(
          std::floor(cpus * (1.0 - best.headroom) / sim::kCapacityStep));
      while (ties(cap + 1)) ++cap;
      while (cap > 0 && !ties(cap)) --cap;
    }
    const sim::RequiredCapacity rc =
        engine.probe(b.server, candidate_id, cap).cpu;
    if (!rc.fits) continue;
    const double headroom = headroom_at(b.server, rc.capacity);
    if (!any_fit || headroom > best.headroom ||
        (headroom == best.headroom && b.server < best.host)) {
      any_fit = true;
      best.host = b.server;
      best.headroom = headroom;
    }
  }
  if (!any_fit) {
    best.decision = AdmissionDecision::kRejected;
    best.reason = "no server can hold the workload under its commitment";
    return best;
  }
  const double revenue = policy.revenue_per_cpu * revenue_weight * candidate_peak;
  const double risk = std::clamp(
      (policy.headroom_margin - best.headroom) / policy.headroom_margin, 0.0,
      1.0);
  const double penalty = policy.penalty_per_cpu * candidate_peak * risk;
  best.score = revenue - penalty;
  if (best.score < 0.0) {
    best.decision = AdmissionDecision::kRejected;
    best.reason = "expected penalty exceeds revenue at the available headroom";
    return best;
  }
  best.decision = AdmissionDecision::kAccepted;
  return best;
}

}  // namespace ropus::serve
