#include "sim/capture.hpp"

#include <algorithm>
#include <cmath>

namespace ble::sim {

namespace {
/// Widens the phase band: far above the few-ulp rounding that can step the
/// computed logistic out of [p(sir, 1), p(sir, 0)], far below any
/// probability the band is meant to save work on.
constexpr double kBandSlack = 1e-9;
}  // namespace

double CaptureModel::byte_corruption_prob(double sir_db, double phase_quality) const noexcept {
    const double phase_shift = (std::clamp(phase_quality, 0.0, 1.0) - 0.5) * 2.0 *
                               params_.phase_spread_db;
    const double effective = sir_db + phase_shift;
    const double survival = 1.0 / (1.0 + std::exp(-(effective - params_.mid_sir_db) /
                                                  params_.slope_db));
    return 1.0 - survival;
}

CaptureModel::CorruptionBand CaptureModel::corruption_band(double sir_db) const noexcept {
    // The best phase (1) gives the lowest probability, the worst (0) the
    // highest; every step of the formula is monotone in the phase.
    const double best = byte_corruption_prob(sir_db, 1.0);
    const double worst = byte_corruption_prob(sir_db, 0.0);
    if (!std::isfinite(best) || !std::isfinite(worst) || best > worst) return {};
    return {best - kBandSlack, worst + kBandSlack};
}

}  // namespace ble::sim
