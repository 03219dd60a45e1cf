#include "sim/capture.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>

namespace ble::sim {

namespace {
/// The logistic's exponent a: the corruption probability is 1 − 1/(1 + e^a).
double logistic_exponent(const CaptureParams& params, double sir_db,
                         double phase_quality) noexcept {
    const double phase_shift = (std::clamp(phase_quality, 0.0, 1.0) - 0.5) * 2.0 *
                               params.phase_spread_db;
    const double effective = sir_db + phase_shift;
    return -(effective - params.mid_sir_db) / params.slope_db;
}
}  // namespace

CaptureModel::CaptureModel(CaptureParams params) noexcept : params_(params) {
    // One exp, then square roots for the quarter steps.
    const double full = std::exp(2.0 * params.phase_spread_db / params.slope_db);
    const double half = std::sqrt(full);
    const double quarter = std::sqrt(half);
    phase_factors_ = {quarter, half, quarter * half, full};
}

double CaptureModel::byte_corruption_prob(double sir_db, double phase_quality) const noexcept {
    return 1.0 - 1.0 / (1.0 + std::exp(logistic_exponent(params_, sir_db, phase_quality)));
}

CaptureModel::CorruptionBand CaptureModel::corruption_band(double sir_db) const noexcept {
    // The best phase (1) gives the lowest probability, the worst (0) the
    // highest; every step of the formula is monotone in the phase.  The
    // exponents of other phases differ from the best one's by a multiple of
    // 2·spread/slope up to the rounding of the SIR, a few ulps that the slack
    // dwarfs.
    const double exp_best = std::exp(logistic_exponent(params_, sir_db, 1.0));
    const auto p = [exp_best](double factor) { return 1.0 - 1.0 / (1.0 + exp_best * factor); };
    const double best = p(1.0);
    const double worst = p(phase_factors_[3]);
    if (!std::isfinite(best) || !std::isfinite(worst) || best > worst) return {};
    return {best - kBandSlack, worst + kBandSlack,
            {p(phase_factors_[0]), p(phase_factors_[1]), p(phase_factors_[2])}};
}

double CaptureModel::neutral_phase_bound(double sir_db) const noexcept {
    // The factor 2 covers the rounding of x, the slack that of 1 + e^a and
    // of the division, which can leave the result a few 2^-53 above e^a.
    const double x = -logistic_exponent(params_, sir_db, 0.5) * std::numbers::log2e;
    if (!(x >= 1.0)) return 2.0;
    const int whole = x < 1000.0 ? static_cast<int>(x) : 1000;
    const auto biased_exponent = static_cast<std::uint64_t>(1023 + 1 - whole);  // 2^(1−whole)
    return std::bit_cast<double>(biased_exponent << 52) + kBandSlack;
}

}  // namespace ble::sim
