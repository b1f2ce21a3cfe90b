// Ablation: what degraded telemetry costs, per fallback policy. Each
// application's control loop runs in isolation (wlm::run_isolated: granted =
// requested) with a TelemetryChannel between the measured demand and the
// controller, sweeping the drop rate — and separately the staleness rate —
// for each fallback policy. Sweep points share per-app channel seeds (common
// random numbers), so a reading dropped at rate r is also dropped at every
// rate above r and the violation columns are monotone in the fault rate.
#include <iostream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/table.h"
#include "qos/translation.h"
#include "support.h"
#include "wlm/compliance.h"
#include "wlm/failure_drill.h"
#include "wlm/telemetry.h"

namespace {

using namespace ropus;

struct SweepPoint {
  std::size_t missing = 0;
  std::size_t stale = 0;
  std::size_t fallback = 0;
  double degraded_pct = 0.0;
  double violating_pct = 0.0;
};

SweepPoint run_fleet(const std::vector<trace::DemandTrace>& demands,
                     const std::vector<qos::Translation>& translations,
                     const wlm::TelemetryFaultModel& model,
                     const wlm::DegradedModeConfig& degraded) {
  SweepPoint point;
  double active = 0.0;
  double degraded_ivals = 0.0;
  double violating_ivals = 0.0;
  // Re-derived identically at every sweep point: app a's channel seed does
  // not depend on the fault rates, which is what makes the sweep CRN-coupled.
  SplitMix64 streams(bench::kSeed);
  for (std::size_t a = 0; a < demands.size(); ++a) {
    const trace::DemandTrace& t = demands[a];
    wlm::TelemetryChannel channel(model, streams.next());
    const wlm::ScheduleAppOutcome run =
        wlm::run_isolated(t, translations[a], wlm::Policy::kReactive,
                          wlm::kDefaultHistoryWindow, channel, degraded);
    const wlm::ComplianceReport& rep = run.normal_mode;
    point.missing += run.telemetry.missing;
    point.stale += run.telemetry.stale;
    point.fallback += run.telemetry.fallback_intervals;
    active += static_cast<double>(rep.intervals - rep.idle);
    degraded_ivals += static_cast<double>(rep.degraded + rep.violating);
    violating_ivals += static_cast<double>(rep.violating);
  }
  if (active > 0.0) {
    point.degraded_pct = 100.0 * degraded_ivals / active;
    point.violating_pct = 100.0 * violating_ivals / active;
  }
  return point;
}

struct PolicyCase {
  const char* label;
  wlm::FallbackPolicy policy;
};

constexpr PolicyCase kPolicies[] = {
    {"hold-last", wlm::FallbackPolicy::kHoldLast},
    {"decay-to-max", wlm::FallbackPolicy::kDecayToMax},
    {"entitlement-floor", wlm::FallbackPolicy::kEntitlementFloor},
};

}  // namespace

int main() {
  using namespace ropus;

  const auto demands = bench::case_study(bench::weeks_from_env());
  const qos::Requirement req = bench::paper_requirement(97.0, 30.0);
  const qos::CosCommitment cos2{0.95, 60.0};
  std::vector<qos::Translation> translations;
  translations.reserve(demands.size());
  for (const trace::DemandTrace& t : demands) {
    translations.push_back(qos::translate(t, req, cos2));
  }

  std::cout << "Ablation — telemetry faults vs QoS, per fallback policy "
               "(isolated controllers, reactive policy)\n";

  std::cout << "\ndrop-rate sweep\n";
  TextTable drops({"fallback", "drop", "missing", "fallback ivals",
                   "degraded %", "violating %"});
  const double drop_rates[] = {0.0, 0.05, 0.1, 0.2, 0.4};
  for (const PolicyCase& pc : kPolicies) {
    wlm::DegradedModeConfig degraded;
    degraded.fallback = pc.policy;
    for (const double rate : drop_rates) {
      wlm::TelemetryFaultModel model;
      model.drop_rate = rate;
      const SweepPoint p = run_fleet(demands, translations, model, degraded);
      drops.add_row({pc.label, TextTable::num(rate, 2),
                     std::to_string(p.missing), std::to_string(p.fallback),
                     TextTable::num(p.degraded_pct, 2),
                     TextTable::num(p.violating_pct, 2)});
    }
  }
  drops.render(std::cout);

  std::cout << "\nstaleness sweep (max staleness 4, tolerance 1)\n";
  TextTable stales({"fallback", "stale", "stale obs", "fallback ivals",
                    "degraded %", "violating %"});
  const double stale_rates[] = {0.0, 0.1, 0.3, 0.6};
  for (const PolicyCase& pc : kPolicies) {
    wlm::DegradedModeConfig degraded;
    degraded.fallback = pc.policy;
    for (const double rate : stale_rates) {
      wlm::TelemetryFaultModel model;
      model.stale_rate = rate;
      model.max_staleness = 4;
      const SweepPoint p = run_fleet(demands, translations, model, degraded);
      stales.add_row({pc.label, TextTable::num(rate, 2),
                      std::to_string(p.stale), std::to_string(p.fallback),
                      TextTable::num(p.degraded_pct, 2),
                      TextTable::num(p.violating_pct, 2)});
    }
  }
  stales.render(std::cout);

  std::cout << "\nreading: hold-last rides out short gaps cheaply but keeps "
               "serving a stale request through long ones; decay-to-max buys "
               "safety by ramping toward the planned peak; entitlement-floor "
               "gives capacity back and pays for it in violating intervals "
               "whenever real demand exceeds the CoS1 entitlement\n";
  return 0;
}
