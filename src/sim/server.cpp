#include "sim/server.h"

#include <utility>

#include "common/error.h"

namespace ropus::sim {

double ServerSpec::capacity(trace::Attribute a) const {
  switch (a) {
    case trace::Attribute::kCpu:
      return capacity();
    case trace::Attribute::kMemoryGb:
      return memory_gb;
    case trace::Attribute::kDiskMbps:
      return disk_mbps;
    case trace::Attribute::kNetworkMbps:
      return network_mbps;
  }
  return 0.0;
}

void ServerSpec::validate() const {
  ROPUS_REQUIRE(!name.empty(), "server needs a name");
  ROPUS_REQUIRE(cpus >= 1, "server needs at least one CPU");
  ROPUS_REQUIRE(memory_gb >= 0.0, "memory capacity must be >= 0");
  ROPUS_REQUIRE(disk_mbps >= 0.0, "disk capacity must be >= 0");
  ROPUS_REQUIRE(network_mbps >= 0.0, "network capacity must be >= 0");
}

std::vector<ServerSpec> homogeneous_pool(std::size_t count, std::size_t cpus,
                                         const std::string& prefix) {
  ROPUS_REQUIRE(count >= 1, "pool needs at least one server");
  std::vector<ServerSpec> pool;
  pool.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::string name = prefix;
    name += i + 1 < 10 ? "-0" : "-";
    name += std::to_string(i + 1);
    pool.push_back(ServerSpec{std::move(name), cpus});
  }
  return pool;
}

}  // namespace ropus::sim
