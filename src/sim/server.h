// Server descriptions for the resource pool. The paper's case study uses
// homogeneous 16-way servers; the pool model allows heterogeneous CPU counts
// (the placement score's f(U) = U^{2Z} term depends on Z per server) and
// per-server capacities for the Section IX attributes.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "trace/attribute.h"

namespace ropus::sim {

/// One server in the pool. Each CPU has unit processing capacity, so the
/// capacity limit L equals the CPU count (Section VI-B's simplification).
/// The memory, disk and network capacities bind only workloads that carry
/// those attributes (placement::PlacementProblem's Section IX model).
struct ServerSpec {
  std::string name;
  std::size_t cpus = 16;
  double memory_gb = 64.0;
  double disk_mbps = 400.0;
  double network_mbps = 1000.0;

  double capacity() const { return static_cast<double>(cpus); }

  /// Capacity of one attribute; kCpu is the CPU count.
  double capacity(trace::Attribute a) const;

  /// Throws InvalidArgument unless the server has a name and >= 1 CPU, and
  /// no attribute capacity is negative.
  void validate() const;
};

/// A pool of `count` identical servers named `<prefix>-NN`.
std::vector<ServerSpec> homogeneous_pool(std::size_t count, std::size_t cpus,
                                         const std::string& prefix = "server");

}  // namespace ropus::sim
