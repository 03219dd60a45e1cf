// lint-fixture-path: src/obs/aggregate.cpp
//
// The deterministic alternatives: integer counters merge associatively, and
// a mean divides an integer sum once, at the end.
#include <cstdint>
#include <vector>

namespace ble::obs {

std::uint64_t total_events(const std::vector<std::uint64_t>& counts) {
    std::uint64_t events = 0;
    for (const std::uint64_t c : counts) {
        events += c;  // integer accumulation: associative, order-free
    }
    return events;
}

double mean_attempts(const std::vector<int>& attempts) {
    std::int64_t total = 0;
    for (const int a : attempts) total += a;
    if (attempts.empty()) return 0.0;
    return static_cast<double>(total) / static_cast<double>(attempts.size());
}

}  // namespace ble::obs
