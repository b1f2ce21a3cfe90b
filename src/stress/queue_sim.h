// Queueing simulation used by the burst-factor stress test.
//
// The paper calibrates each application's acceptable burst-factor range by
// stress testing it in a controlled environment [10]. We substitute an open
// FCFS queue: requests arrive Poisson, carry exponential CPU demand, and are
// served by a container whose speed is its capacity in CPUs. The utilization
// of allocation equals (arrival rate x mean demand) / capacity, so sweeping
// the burst factor sweeps utilization exactly as in the paper's exercise.
#pragma once

#include <cstdint>

namespace ropus::stress {

/// An open workload: Poisson arrivals carrying exponential CPU work.
struct Workload {
  double arrival_rate = 10.0;         // requests per second
  double mean_service_demand = 0.05;  // CPU-seconds per request

  /// Mean CPU demand the workload places on its container (CPUs).
  double mean_cpu_demand() const {
    return arrival_rate * mean_service_demand;
  }

  void validate() const;
};

/// Steady-state response-time metrics from a simulation run.
struct QueueMetrics {
  double mean_response = 0.0;  // seconds
  double p95_response = 0.0;   // seconds
  double utilization = 0.0;    // offered demand / capacity
  std::size_t completed = 0;   // requests measured (after warmup)
};

/// Simulates `requests` FCFS requests at container speed `capacity_cpus`
/// via the Lindley recursion, discarding a warmup prefix. Requires a stable
/// system (offered demand < capacity). Deterministic in `seed`.
QueueMetrics simulate_fcfs(const Workload& workload, double capacity_cpus,
                           std::size_t requests, std::uint64_t seed);

/// Analytic M/M/1 mean response time at container speed `capacity_cpus`:
///   R = (s / C) / (1 - rho),  rho = lambda s / C.
/// Used to cross-check the simulator in tests. Requires rho < 1.
double analytic_mm1_response(const Workload& workload, double capacity_cpus);

}  // namespace ropus::stress
