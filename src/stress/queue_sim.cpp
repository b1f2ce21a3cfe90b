#include "stress/queue_sim.h"

#include <algorithm>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/stats.h"

namespace ropus::stress {

void Workload::validate() const {
  ROPUS_REQUIRE(arrival_rate > 0.0, "arrival rate must be > 0");
  ROPUS_REQUIRE(mean_service_demand > 0.0, "service demand must be > 0");
}

QueueMetrics simulate_fcfs(const Workload& workload, double capacity_cpus,
                           std::size_t requests, std::uint64_t seed) {
  workload.validate();
  ROPUS_REQUIRE(capacity_cpus > 0.0, "capacity must be > 0");
  ROPUS_REQUIRE(requests >= 100, "need at least 100 requests to measure");
  const double rho = workload.mean_cpu_demand() / capacity_cpus;
  ROPUS_REQUIRE(rho < 1.0, "offered demand must be below capacity");

  Rng rng(seed);
  const std::size_t warmup = requests / 10;
  std::vector<double> responses;
  responses.reserve(requests - warmup);

  // Lindley recursion: W_{n+1} = max(0, W_n + S_n - T_{n+1}); response time
  // of request n is W_n + S_n, with S the service time at container speed.
  double wait = 0.0;
  for (std::size_t n = 0; n < requests; ++n) {
    const double service =
        rng.exponential(1.0 / workload.mean_service_demand) / capacity_cpus;
    if (n >= warmup) responses.push_back(wait + service);
    const double interarrival = rng.exponential(workload.arrival_rate);
    wait = std::max(0.0, wait + service - interarrival);
  }

  QueueMetrics m;
  m.completed = responses.size();
  m.utilization = rho;
  m.mean_response = stats::summarize(responses).mean;
  m.p95_response = stats::percentile(responses, 95.0);
  return m;
}

double analytic_mm1_response(const Workload& workload, double capacity_cpus) {
  workload.validate();
  ROPUS_REQUIRE(capacity_cpus > 0.0, "capacity must be > 0");
  const double rho = workload.mean_cpu_demand() / capacity_cpus;
  ROPUS_REQUIRE(rho < 1.0, "offered demand must be below capacity");
  return (workload.mean_service_demand / capacity_cpus) / (1.0 - rho);
}

}  // namespace ropus::stress
