#include "sim/sleep_clock.hpp"

#include <algorithm>
#include <cstdint>

namespace ble::sim {

SleepClock::SleepClock(SleepClockParams params, Rng rng) noexcept
    : params_(params), rng_(rng) {
    if (params_.initial_ppm == SleepClockParams::kSampleInitial) {
        rate_ppm_ = rng_.uniform(-params_.sca_ppm, params_.sca_ppm);
    } else {
        rate_ppm_ = std::clamp(params_.initial_ppm, -params_.sca_ppm, params_.sca_ppm);
    }
}

void SleepClock::step_walk() noexcept {
    rate_ppm_ = rate_ppm_ * (1.0 - params_.reversion) +
                rng_.normal(0.0, params_.walk_step_ppm);
    rate_ppm_ = std::clamp(rate_ppm_, -params_.sca_ppm, params_.sca_ppm);
}

namespace {
/// std::llround without the library call: the nearest integer, halfway
/// cases away from zero.  Exact for |x| < 2^63: the truncation is exact,
/// and so is x minus it (below 2^53 it is x's fraction, above it is 0).
std::int64_t round_half_away(double x) noexcept {
    auto whole = static_cast<std::int64_t>(x);
    const double fraction = x - static_cast<double>(whole);
    if (fraction >= 0.5) ++whole;
    if (fraction <= -0.5) --whole;
    return whole;
}
}  // namespace

Duration SleepClock::to_global(Duration local) noexcept {
    step_walk();
    const double scaled = static_cast<double>(local) * (1.0 + rate_ppm_ * 1e-6);
    return static_cast<Duration>(round_half_away(scaled));
}

}  // namespace ble::sim
