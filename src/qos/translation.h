// QoS translation (Section V): maps an application's demand trace and QoS
// requirement onto the pool's two classes of service.
//
// The translation proceeds in the paper's three steps:
//  1. breakpoint p = (U_low/U_high - theta) / (1 - theta)  (formula 1,
//     clamped to 0 when U_low/U_high <= theta): demand up to p * D_new_max is
//     carried by guaranteed CoS1, the rest by CoS2;
//  2. percentile capping (formulas 2-3): the M-th percentile of demand (or
//     the U_degr-scaled peak, whichever dominates) replaces the raw peak as
//     the demand value D_new_max that sizes the maximum allocation;
//  3. time-limited degradation (formulas 6-11): D_new_max is raised
//     iteratively until no contiguous run of degraded observations exceeds
//     T_degr. Each break step sets
//         D_new_max = D_min_degr * U_low / (U_high * (p (1-theta) + theta))
//     which simplifies to D_min_degr when p > 0 and to
//     D_min_degr * U_low / (U_high * theta) when p = 0.
// An optional fourth step implements footnote 2: while any day contains
// more degraded epochs than the budget allows, the epoch with the smallest
// maximum demand is eliminated outright by raising D_new_max until that
// maximum is acceptable.
//
// Degradation is judged against the worst-case *received* allocation
// permitted by the CoS2 commitment: A_recv = (A_CoS1 + theta * A_CoS2)
// (paper formula 8). An observation with demand D is degraded iff
//     D > D_new_max * (p + theta (1 - p)) * U_high / U_low,
// which reduces to D > D_new_max exactly when p > 0.
#pragma once

#include <cstddef>

#include "qos/requirements.h"
#include "trace/demand_trace.h"

namespace ropus::qos {

/// Formula 1. Requires 0 < u_low < u_high and 0 < theta <= 1. Returns the
/// fraction p in [0, 1] of D_new_max that must ride on guaranteed CoS1.
double breakpoint(double u_low, double u_high, double theta);

/// Result of translating one application onto the pool's two CoS.
struct Translation {
  Requirement requirement;  // the requirement this translation satisfies
  double theta = 1.0;       // CoS2 resource access probability used

  double breakpoint_p = 0.0;  // formula 1
  double d_max = 0.0;         // raw peak demand in the trace
  double d_m_pct = 0.0;       // M-th percentile of demand
  double d_new_max = 0.0;     // effective max demand after steps 2 and 3
  std::size_t t_degr_iterations = 0;  // break steps taken in step 3

  /// p + theta (1 - p): the worst-case fraction of a requested allocation
  /// that the two-CoS mix is guaranteed to deliver. Equals U_low/U_high
  /// exactly when p > 0.
  double cos_mix() const { return breakpoint_p + theta * (1.0 - breakpoint_p); }

  /// Demand at or below this value is carried entirely by CoS1.
  double cos1_demand_cap() const { return breakpoint_p * d_new_max; }

  /// Peak *requested* allocation: D_new_max scaled by the burst factor
  /// 1/U_low. Table I's C_peak sums this over applications.
  double peak_allocation() const { return d_new_max / requirement.u_low; }

  /// Peak CoS1 allocation (used by the placement feasibility precheck).
  double peak_cos1_allocation() const {
    return cos1_demand_cap() / requirement.u_low;
  }

  /// Demand threshold above which an observation is degraded
  /// (U_alloc > U_high under worst-case received allocation).
  double degraded_demand_threshold() const {
    return d_new_max * cos_mix() * requirement.u_high / requirement.u_low;
  }

  /// Realized reduction in maximum allocation vs. sizing for the raw peak:
  /// 1 - D_new_max / D_max (0 for a zero trace). Figure 7 plots this.
  double max_cap_reduction() const {
    return d_max > 0.0 ? 1.0 - d_new_max / d_max : 0.0;
  }
};

/// Runs the full three-step translation of `demand` against `req` using the
/// CoS2 commitment `cos2`. `req` and `cos2` are validated. The trace's
/// calendar supplies the observation interval for the T_degr analysis.
Translation translate(const trace::DemandTrace& demand, const Requirement& req,
                      const CosCommitment& cos2);

/// Fraction of observations in `demand` that are degraded under `tr`
/// (worst-case received allocation). Figure 8 plots this per application.
double degraded_fraction(const trace::DemandTrace& demand,
                         const Translation& tr);

/// Longest contiguous degraded stretch, in minutes, under `tr`.
double longest_degraded_minutes(const trace::DemandTrace& demand,
                                const Translation& tr);

/// Largest number of degraded epochs beginning within any single calendar
/// day under `tr` (footnote 2 of Section III).
std::size_t max_degraded_epochs_per_day(const trace::DemandTrace& demand,
                                        const Translation& tr);

}  // namespace ropus::qos
