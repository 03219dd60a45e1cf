// Simulation time and the BLE timing constants the attack is built on.
//
// All simulation time is held in signed 64-bit *nanoseconds*.  The BLE spec
// expresses everything in microseconds (and 1250 µs units); nanoseconds give
// headroom so sub-µs clock-drift integration never rounds to zero.
#pragma once

#include <cstdint>

namespace ble {

/// Absolute simulation time in nanoseconds since simulation start.
using TimePoint = std::int64_t;
/// Signed duration in nanoseconds.
using Duration = std::int64_t;

constexpr Duration operator""_ns(unsigned long long v) { return static_cast<Duration>(v); }
constexpr Duration operator""_us(unsigned long long v) { return static_cast<Duration>(v) * 1000; }
constexpr Duration operator""_ms(unsigned long long v) {
    return static_cast<Duration>(v) * 1000 * 1000;
}
constexpr Duration operator""_s(unsigned long long v) {
    return static_cast<Duration>(v) * 1000 * 1000 * 1000;
}

constexpr Duration microseconds(std::int64_t v) { return v * 1000; }
constexpr Duration milliseconds(std::int64_t v) { return v * 1000 * 1000; }
constexpr Duration seconds(std::int64_t v) { return v * 1000 * 1000 * 1000; }
constexpr double to_us(Duration d) { return static_cast<double>(d) / 1000.0; }
constexpr double to_ms(Duration d) { return static_cast<double>(d) / 1'000'000.0; }

// --- Bluetooth Core Specification timing constants (Vol 6, Part B) ---

/// Inter-frame spacing: gap between consecutive frames in a connection event.
constexpr Duration kTifs = 150_us;
/// Granularity of WinOffset / WinSize / connInterval (1.25 ms).
constexpr Duration kUnit1250us = 1250_us;
/// Granularity of supervision timeout (10 ms).
constexpr Duration kUnit10ms = 10_ms;
/// Constant term of the window-widening formula (Eq. 4 of the paper).
constexpr Duration kWindowWideningConstant = 32_us;
/// Mandatory delay between the end of CONNECT_REQ and the transmit window.
constexpr Duration kTransmitWindowDelayUncoded = 1250_us;

/// Connection interval from the Hop Interval field (paper Eq. 2).
constexpr Duration connection_interval(std::uint16_t hop_interval) {
    return static_cast<Duration>(hop_interval) * kUnit1250us;
}

}  // namespace ble
