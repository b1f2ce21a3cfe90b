// Revenue/penalty-aware admission control (after Mazzucco et al.'s
// QoS-aware provisioning policies): an arriving application is translated
// through the QoS kernel, placed incrementally around the existing fleet
// (per-server probes of the reversible delta-evaluation engine — no full
// placement re-run), and then accepted, renegotiated to a weaker band, or
// rejected by comparing the expected revenue of hosting it against the
// penalty exposure of the headroom it would leave.
//
// The placement is branch-and-bound over the servers. The engine's
// probe_bound, O(groups) per hosted workload, caps each server's headroom;
// servers are probed from the highest cap down, the scan stops once no
// server left can beat the best or tie it at a lower index, and each later
// probe's search stops at the grid point that would tie the best. Every
// bound is at most the probe's answer, so the chosen host, headroom and
// score are those of probing every server (docs/serve.md, "Admission
// control"; tests/serve/admission_bound_test.cpp keeps that scan as its
// oracle).
//
// The arbiter passes its long-lived engine, whose per-server sums survive
// across admissions; by the engine's bit-equality contract its verdict
// bytes are those of an engine rebuilt from the fleet for every admission
// (tests/golden/admission_golden.txt pins them).
#pragma once

#include <cstddef>
#include <string>

#include "sim/incremental.h"

namespace ropus::serve {

struct AdmissionPolicy {
  /// Revenue rate per peak allocation CPU of an admitted app (scaled by the
  /// request's relative revenue weight).
  double revenue_per_cpu = 1.0;
  /// Penalty rate per peak allocation CPU when the placement is risky.
  double penalty_per_cpu = 2.0;
  /// Headroom (spare fraction of the host's capacity) below which the
  /// penalty term ramps in: risk = clamp01((margin - headroom) / margin).
  double headroom_margin = 0.1;
  /// Band offered when the requested QoS does not fit anywhere: M% is
  /// lowered to this value and T_degr relaxed to `renegotiate_tdegr`.
  double renegotiate_m = 90.0;
  double renegotiate_tdegr = 30.0;

  /// Throws InvalidArgument on nonsensical settings.
  void validate() const;
};

enum class AdmissionDecision { kAccepted, kRenegotiated, kRejected };

struct AdmissionOutcome {
  AdmissionDecision decision = AdmissionDecision::kRejected;
  std::size_t host = 0;      // valid unless rejected
  double headroom = 0.0;     // spare fraction of the host after admission
  double score = 0.0;        // revenue - penalty for the chosen host
  std::string reason;        // set on rejection
};

/// Scores the registered, unhosted workload `candidate_id` (weighting
/// `revenue_weight`, peaking at `candidate_peak` CPUs) against the servers
/// of `engine`: feasible servers are ranked best-fit by post-admission
/// headroom, found by probing the servers whose bound could still win, and
/// the winner's revenue/penalty score decides acceptance. Deterministic:
/// ties break on the lower server index. Engine state is unchanged.
AdmissionOutcome place_candidate(sim::IncrementalEvaluator& engine,
                                 std::size_t candidate_id,
                                 double candidate_peak, double revenue_weight,
                                 const AdmissionPolicy& policy);

}  // namespace ropus::serve
