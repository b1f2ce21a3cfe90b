#include "qos/translation.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/logging.h"
#include "common/stats.h"
#include "obs/metrics.h"

namespace ropus::qos {

namespace {
// Relative slack for the degradation test. After a break step the run's
// minimum demand lands exactly on the threshold analytically; the slack keeps
// rounding error from re-flagging it and stalling the iteration.
constexpr double kRelEps = 1e-9;

bool is_degraded(double demand, double threshold) {
  return demand > threshold * (1.0 + kRelEps);
}
}  // namespace

double breakpoint(double u_low, double u_high, double theta) {
  ROPUS_REQUIRE(u_low > 0.0 && u_low < u_high, "need 0 < U_low < U_high");
  ROPUS_REQUIRE(theta > 0.0 && theta <= 1.0, "theta must be in (0, 1]");
  const double ratio = u_low / u_high;
  if (ratio <= theta) return 0.0;  // all demand may ride on CoS2
  // theta < ratio < 1 here, so the denominator is positive and p in (0, 1).
  return (ratio - theta) / (1.0 - theta);
}

Translation translate(const trace::DemandTrace& demand, const Requirement& req,
                      const CosCommitment& cos2) {
  static obs::Counter& calls = obs::counter("qos.translate.calls");
  static obs::Histogram& seconds = obs::histogram("qos.translate.seconds");
  calls.add(1);
  obs::ScopedTimer timer(seconds);

  req.validate();
  cos2.validate();

  Translation tr;
  tr.requirement = req;
  tr.theta = cos2.theta;
  tr.breakpoint_p = breakpoint(req.u_low, req.u_high, cos2.theta);
  tr.d_max = demand.peak();
  if (tr.d_max <= 0.0) {
    // A zero trace needs no allocation on either class.
    tr.d_m_pct = 0.0;
    tr.d_new_max = 0.0;
    return tr;
  }
  // The exact order statistic (not the interpolated percentile): it
  // guarantees no more than M_degr% of observations exceed D_M%, which the
  // "at least M% acceptable" requirement needs verbatim.
  tr.d_m_pct = stats::percentile_upper(demand.values(), req.m_percent);

  // Step 2 (formulas 2-3): percentile capping. With M = 100 every
  // observation must be acceptable, so the raw peak sizes the allocation.
  if (req.m_percent >= 100.0) {
    tr.d_new_max = tr.d_max;
  } else {
    const double a_ok = tr.d_m_pct / req.u_high;
    const double a_degr = tr.d_max / req.u_degr;
    tr.d_new_max =
        a_ok >= a_degr ? tr.d_m_pct : tr.d_max * req.u_high / req.u_degr;
  }

  // Step 3 (formulas 6-11): break degraded runs longer than T_degr.
  if (req.t_degr_minutes.has_value()) {
    const trace::Calendar& cal = demand.calendar();
    // R observations span T_degr minutes; a run needs > R observations to
    // violate, and the paper breaks it inside its first R+1 observations.
    const std::size_t r = cal.observations_in(*req.t_degr_minutes);
    const std::span<const double> values = demand.values();
    const double mix = tr.cos_mix();

    bool violated = true;
    while (violated) {
      violated = false;
      const double threshold = tr.degraded_demand_threshold();
      std::size_t run_length = 0;
      std::size_t window_begin = 0;
      for (std::size_t i = 0; i < values.size(); ++i) {
        if (!is_degraded(values[i], threshold)) {
          run_length = 0;
          continue;
        }
        if (run_length == 0) window_begin = i;
        ++run_length;
        if (run_length <= r) continue;

        // Found R+1 contiguous degraded observations. Raise D_new_max so the
        // cheapest of them becomes acceptable, breaking the run (formula 10).
        const double d_min_degr =
            *std::min_element(values.begin() + static_cast<std::ptrdiff_t>(window_begin),
                              values.begin() + static_cast<std::ptrdiff_t>(i) + 1);
        const double d_new =
            d_min_degr * req.u_low / (req.u_high * mix);
        if (d_new <= tr.d_new_max) {
          // Analytically impossible (the minimum was degraded, so the new
          // value strictly exceeds the old); nudge to guarantee progress if
          // rounding ever collapses the step.
          ROPUS_LOG(kWarn) << "T_degr break step stalled on " << demand.name()
                           << "; nudging D_new_max";
          tr.d_new_max = std::nextafter(
              tr.d_new_max, std::numeric_limits<double>::infinity());
        } else {
          tr.d_new_max = d_new;
        }
        ++tr.t_degr_iterations;
        violated = true;
        break;  // thresholds changed; rescan from the start
      }
    }
  }

  // Step 4 (footnote 2 of Section III): bound the number of degraded epochs
  // that begin within any one day. Eliminating an epoch means raising
  // D_new_max until the epoch's *largest* demand is acceptable; the degraded
  // set shrinks pointwise as the threshold rises, so runs never grow and the
  // step-3 guarantee is preserved. Each elimination strictly increases
  // D_new_max, so the loop terminates.
  if (req.max_degraded_epochs_per_day.has_value() &&
      tr.d_new_max < tr.d_max) {
    const trace::Calendar& cal = demand.calendar();
    const std::span<const double> values = demand.values();
    const std::size_t budget = *req.max_degraded_epochs_per_day;
    const double mix = tr.cos_mix();

    bool violated = true;
    while (violated) {
      violated = false;
      const double threshold = tr.degraded_demand_threshold();

      // Per-day epoch census; an epoch belongs to the day it begins in.
      // Track, for the currently worst day, the epoch with the smallest
      // maximum demand — the cheapest one to eliminate.
      const std::size_t days = cal.size() / cal.slots_per_day();
      std::vector<std::size_t> epochs(days, 0);
      std::vector<double> cheapest_epoch_max(
          days, std::numeric_limits<double>::infinity());
      std::size_t run_day = 0;
      double run_max = 0.0;
      bool in_run = false;
      for (std::size_t i = 0; i <= values.size(); ++i) {
        const bool degraded =
            i < values.size() && is_degraded(values[i], threshold);
        if (degraded) {
          if (!in_run) {
            in_run = true;
            run_day = i / cal.slots_per_day();
            run_max = values[i];
          } else {
            run_max = std::max(run_max, values[i]);
          }
        } else if (in_run) {
          in_run = false;
          epochs[run_day] += 1;
          cheapest_epoch_max[run_day] =
              std::min(cheapest_epoch_max[run_day], run_max);
        }
      }

      for (std::size_t day = 0; day < days; ++day) {
        if (epochs[day] <= budget) continue;
        const double d_new =
            cheapest_epoch_max[day] * req.u_low / (req.u_high * mix);
        if (d_new <= tr.d_new_max) {
          ROPUS_LOG(kWarn) << "epoch budget step stalled on "
                           << demand.name() << "; nudging D_new_max";
          tr.d_new_max = std::nextafter(
              tr.d_new_max, std::numeric_limits<double>::infinity());
        } else {
          tr.d_new_max = std::min(d_new, tr.d_max);
        }
        ++tr.t_degr_iterations;
        violated = true;
        break;  // rescan with the raised threshold
      }
      if (tr.d_new_max >= tr.d_max) break;  // nothing degrades any more
    }
  }

  ROPUS_ASSERT(tr.d_new_max <= tr.d_max * (1.0 + kRelEps),
               "D_new_max may never exceed the raw peak");
  tr.d_new_max = std::min(tr.d_new_max, tr.d_max);
  return tr;
}

double degraded_fraction(const trace::DemandTrace& demand,
                         const Translation& tr) {
  if (demand.size() == 0) return 0.0;
  const double threshold = tr.degraded_demand_threshold();
  std::size_t count = 0;
  for (double v : demand.values()) {
    if (is_degraded(v, threshold)) ++count;
  }
  return static_cast<double>(count) / static_cast<double>(demand.size());
}

std::size_t max_degraded_epochs_per_day(const trace::DemandTrace& demand,
                                        const Translation& tr) {
  const trace::Calendar& cal = demand.calendar();
  const double threshold = tr.degraded_demand_threshold();
  const std::size_t days = cal.size() / cal.slots_per_day();
  std::vector<std::size_t> epochs(days, 0);
  bool in_run = false;
  for (std::size_t i = 0; i < demand.size(); ++i) {
    const bool degraded = is_degraded(demand[i], threshold);
    if (degraded && !in_run) {
      epochs[i / cal.slots_per_day()] += 1;
    }
    in_run = degraded;
  }
  std::size_t worst = 0;
  for (std::size_t e : epochs) worst = std::max(worst, e);
  return worst;
}

double longest_degraded_minutes(const trace::DemandTrace& demand,
                                const Translation& tr) {
  const double threshold = tr.degraded_demand_threshold();
  std::size_t best = 0;
  std::size_t cur = 0;
  for (double v : demand.values()) {
    cur = is_degraded(v, threshold) ? cur + 1 : 0;
    best = std::max(best, cur);
  }
  return static_cast<double>(best) *
         static_cast<double>(demand.calendar().minutes_per_sample());
}

}  // namespace ropus::qos
