#include "workload/whatif.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/error.h"

namespace ropus::workload {

trace::DemandTrace time_shift(const trace::DemandTrace& t, double minutes) {
  const trace::Calendar& cal = t.calendar();
  const double interval = static_cast<double>(cal.minutes_per_sample());
  const double slots_exact = minutes / interval;
  const double rounded = std::round(slots_exact);
  ROPUS_REQUIRE(std::abs(slots_exact - rounded) < 1e-9,
                "shift must be a multiple of the sampling interval");
  const std::size_t week_len = cal.slots_per_week();
  // Normalize into [0, week_len).
  const long raw = static_cast<long>(rounded) % static_cast<long>(week_len);
  const std::size_t shift = static_cast<std::size_t>(
      raw >= 0 ? raw : raw + static_cast<long>(week_len));

  std::vector<double> out(t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    const std::size_t week = i / week_len;
    const std::size_t pos = i % week_len;
    const std::size_t src = week * week_len + (pos + week_len - shift) % week_len;
    out[i] = t[src];
  }
  return trace::DemandTrace(t.name() + "/shifted", cal, std::move(out));
}

std::vector<trace::DemandTrace> apply_scenario(
    std::span<const trace::DemandTrace> fleet, const Scenario& scenario) {
  ROPUS_REQUIRE(scenario.scale.empty() ||
                    scenario.scale.size() == fleet.size(),
                "scenario.scale must be empty or match the fleet size");
  std::set<std::size_t> removed;
  for (std::size_t r : scenario.removals) {
    ROPUS_REQUIRE(r < fleet.size(), "removal index out of range");
    removed.insert(r);
  }
  std::vector<trace::DemandTrace> out;
  out.reserve(fleet.size() - removed.size() + scenario.additions.size());
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    if (removed.contains(i)) continue;
    const double factor =
        scenario.scale.empty() ? 1.0 : scenario.scale[i];
    out.push_back(factor == 1.0 ? fleet[i] : fleet[i].scaled(factor));
  }
  for (const trace::DemandTrace& extra : scenario.additions) {
    ROPUS_REQUIRE(fleet.empty() || extra.calendar() == fleet[0].calendar(),
                  "additions must share the fleet calendar");
    out.push_back(extra);
  }
  return out;
}

}  // namespace ropus::workload
