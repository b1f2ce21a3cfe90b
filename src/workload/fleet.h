// The case-study fleet: 26 synthetic enterprise applications standing in for
// the proprietary order-entry workloads of Section VII, shaped so that the
// Figure 6 percentile structure holds:
//   * two applications with a tiny fraction of extremely large observations
//     (top 0.1% roughly 10x the remaining demand),
//   * roughly ten applications whose top 3% of demand is 2-10x the rest,
//   * the remainder increasingly smooth and diurnal.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/demand_trace.h"
#include "workload/profile.h"

namespace ropus::workload {

/// Number of applications in the paper's case study.
inline constexpr std::size_t kCaseStudyApps = 26;

/// The 26 application profiles, ordered from most to least bursty (the
/// paper's Figure 6 orders applications the same way).
std::vector<Profile> case_study_profiles();

/// Generates the 26 traces on `calendar` (the paper's is four weeks at
/// 5-minute resolution, trace::Calendar::standard(4)). Deterministic in
/// `seed`; the paper's experiments use seed = 2006 (the publication year).
std::vector<trace::DemandTrace> case_study_traces(
    const trace::Calendar& calendar, std::uint64_t seed);

}  // namespace ropus::workload
