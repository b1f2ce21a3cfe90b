// Server descriptions for the resource pool. The paper's case study uses
// homogeneous 16-way servers; the pool model allows heterogeneous CPU counts
// (the placement score's f(U) = U^{2Z} term depends on Z per server).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace ropus::sim {

/// One server in the pool. Each CPU has unit processing capacity, so the
/// capacity limit L equals the CPU count (Section VI-B's simplification).
struct ServerSpec {
  std::string name;
  std::size_t cpus = 16;

  double capacity() const { return static_cast<double>(cpus); }

  /// Throws InvalidArgument unless the server has a name and >= 1 CPU.
  void validate() const;
};

/// A pool of `count` identical servers named `<prefix>-NN`.
std::vector<ServerSpec> homogeneous_pool(std::size_t count, std::size_t cpus,
                                         const std::string& prefix = "server");

}  // namespace ropus::sim
