// lint-fixture-path: src/obs/telemetry_client.cpp
//
// Telemetry callers never read a clock: they call ble::telemetry_now_ms()
// (the one audited wall-clock read, defined elsewhere) and pass the value
// down as an explicit now_ms parameter, so the sink stays fake-clock-testable
// and D2 has nothing to flag here.
#include <cstdint>

#include "common/time.hpp"
#include "obs/telemetry.hpp"

namespace ble::obs {

void stamp_shard(TelemetrySink& telemetry, int task) {
    const std::int64_t now_ms = ble::telemetry_now_ms();
    telemetry.shard_done(task, /*worker=*/0, /*round=*/0, now_ms);
    (void)telemetry.check_stragglers(now_ms);
}

}  // namespace ble::obs
