// lint-fixture-path: src/obs/telemetry_uplink.hpp
//
// Layering regression, mirroring the real temptation: the observability
// layer (rank 1) reaching up into the world layer (rank 7) to reuse its
// testbed types.  The dependency must be inverted — world already includes
// obs — so this upward include is an L1 finding.
#include <cstdint>

#include "world/world.hpp"

namespace ble::obs {

struct TelemetryUplink {
    std::uint32_t hop_interval = 0;
};

}  // namespace ble::obs
