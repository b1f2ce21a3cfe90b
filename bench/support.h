// Shared setup for the benchmark harness: the case-study fleet and the
// Section VII QoS requirement, plus environment knobs so CI can run the
// benches quickly (ROPUS_BENCH_WEEKS=1) while full runs match the paper
// (4 weeks).
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "placement/consolidator.h"
#include "qos/requirements.h"
#include "qos/workload_allocations.h"
#include "trace/demand_trace.h"

namespace ropus::bench {

/// Seed used throughout the reproduction.
inline constexpr std::uint64_t kSeed = 2006;

/// Weeks of history: honours ROPUS_BENCH_WEEKS (default 4, as in the paper).
std::size_t weeks_from_env();

/// The 26-application case-study traces.
std::vector<trace::DemandTrace> case_study(std::size_t weeks);

/// The Section VII requirement: U_low=0.5, U_high=0.66, U_degr=0.9.
qos::Requirement paper_requirement(double m_percent,
                                   std::optional<double> t_degr_minutes);

/// Consolidation configuration used by the larger benches; honours
/// ROPUS_BENCH_FAST=1 for a smaller search budget.
placement::ConsolidationConfig bench_consolidation(std::uint64_t seed = 1);

/// Case-study workloads with translated CPU plus generated memory, disk,
/// and network attribute traces (the multi-attribute extension).
std::vector<qos::WorkloadAllocations> case_study_multi(
    std::size_t weeks, const qos::Requirement& req,
    const qos::CosCommitment& cos2);

/// One timed phase of a bench run. `seconds` is the phase wall time;
/// `ops_per_sec` and `iterations` are optional throughput detail for
/// steady-state phases (0 / unset for one-shot phases).
struct BenchPhase {
  std::string name;
  double seconds = 0.0;
  std::optional<double> ops_per_sec;
  std::uint64_t iterations = 0;
};

/// Collects phases and scalar results for one bench binary and writes them
/// as machine-readable BENCH_<name>.json (schema: docs/observability.md)
/// next to the working directory, or into $ROPUS_BENCH_OUT_DIR when set.
/// The document also records the build identity (git describe), the weeks /
/// fast-mode knobs, total wall time, and peak RSS, so a CI artifact alone
/// identifies what ran and what it cost.
class BenchReporter {
 public:
  /// `name` is the bench binary's short name ("micro_perf", ...).
  explicit BenchReporter(std::string name);

  void add_phase(BenchPhase phase);
  /// Convenience for one-shot phases timed by the caller.
  void add_phase(std::string name, double seconds);

  /// Extra scalar results ("servers_used", "p95_violation_hours", ...).
  void set_metric(const std::string& name, double value);

  /// The calendar the bench replays, for a bench whose traces do not follow
  /// ROPUS_BENCH_WEEKS.
  void set_weeks(std::size_t weeks) { weeks_ = weeks; }
  /// Timed repetitions per phase, written as "repetitions" when set.
  void set_repetitions(std::size_t repetitions) { repetitions_ = repetitions; }

  std::string to_json() const;

  /// Writes BENCH_<name>.json atomically; returns the path written.
  std::filesystem::path write() const;

 private:
  std::string name_;
  double start_seconds_ = 0.0;
  std::vector<BenchPhase> phases_;
  std::map<std::string, double> metrics_;
  std::optional<std::size_t> weeks_;
  std::optional<std::size_t> repetitions_;
};

/// Times `fn()` and records it as a phase on `reporter`, passing the
/// callable's result (if any) through.
template <typename Fn>
auto timed_phase(BenchReporter& reporter, std::string name, Fn&& fn) {
  const double start = obs::monotonic_seconds();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    reporter.add_phase(std::move(name), obs::monotonic_seconds() - start);
  } else {
    auto result = fn();
    reporter.add_phase(std::move(name), obs::monotonic_seconds() - start);
    return result;
  }
}

}  // namespace ropus::bench
