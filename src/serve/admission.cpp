#include "serve/admission.h"

#include <algorithm>

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
  AdmissionOutcome best;
  bool any_fit = false;
  for (std::size_t s = 0; s < engine.server_count(); ++s) {
    const sim::RequiredCapacity rc = engine.probe(s, candidate_id).cpu;
    if (!rc.fits) continue;
    const double cpus = engine.server_cpus(s);
    const double headroom = cpus > 0.0 ? (cpus - rc.capacity) / cpus : 0.0;
    // Best-fit by headroom; strict > keeps ties on the lower server index.
    if (!any_fit || headroom > best.headroom) {
      any_fit = true;
      best.host = s;
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
