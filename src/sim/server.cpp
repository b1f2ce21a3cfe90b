#include "sim/server.h"

#include "common/error.h"

namespace ropus::sim {

void ServerSpec::validate() const {
  ROPUS_REQUIRE(!name.empty(), "server needs a name");
  ROPUS_REQUIRE(cpus >= 1, "server needs at least one CPU");
}

std::vector<ServerSpec> homogeneous_pool(std::size_t count, std::size_t cpus,
                                         const std::string& prefix) {
  ROPUS_REQUIRE(count >= 1, "pool needs at least one server");
  std::vector<ServerSpec> pool;
  pool.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::string suffix =
        (i + 1 < 10 ? "0" : "") + std::to_string(i + 1);
    pool.push_back(ServerSpec{prefix + "-" + suffix, cpus});
  }
  return pool;
}

}  // namespace ropus::sim
