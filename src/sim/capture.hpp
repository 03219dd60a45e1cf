// Collision / capture model for overlapping GFSK frames.
//
// Paper §V-D, outcome (b): an injected frame that overlaps the legitimate one
// may still be demodulated intact "when the power of the injected signal is by
// far superior to the power of the legitimate signal … [or] depending on the
// phase difference between the injected and legitimate signals".
//
// We model exactly that: each byte that overlaps an interferer is corrupted
// with a probability that is a logistic in the signal-to-interference ratio
// (SIR), shifted by a per-byte carrier-phase lottery.  With the defaults a
// byte survives half the time at -12 dB SIR, 88% of the time at -2 dB and
// 99% at +11 dB; the phase moves the effective SIR by up to ±3 dB.
#pragma once

#include <array>
#include <limits>

namespace ble::sim {

struct CaptureParams {
    /// SIR (dB) at which an overlapped byte survives with probability 0.5
    /// (before the phase shift). Negative: GFSK capture tolerates moderately
    /// stronger interferers thanks to FM capture effect.
    double mid_sir_db = -12.0;
    /// Logistic slope (dB): smaller = sharper capture threshold.
    double slope_db = 5.0;
    /// Amplitude of the per-byte phase lottery, expressed as an equivalent
    /// SIR shift in dB. A lucky relative carrier phase can rescue a collision
    /// (paper §V-D); an unlucky one dooms it.
    double phase_spread_db = 3.0;
};

class CaptureModel {
public:
    explicit CaptureModel(CaptureParams params = {}) noexcept;

    /// Probability that a single byte overlapped by an interferer at the given
    /// SIR is corrupted. `phase_quality` in [0,1] shifts the effective SIR by
    /// ±phase_spread_db.  RadioMedium draws it per byte and per overlapping
    /// interferer, in transmission-id order; the last draw is the one used.
    [[nodiscard]] double byte_corruption_prob(double sir_db, double phase_quality) const noexcept;

    /// Widens every band edge: far above the few-ulp rounding that can step
    /// the computed logistic out of a band, far below any probability a band
    /// is meant to save work on.
    static constexpr double kBandSlack = 1e-9;

    /// The range byte_corruption_prob(sir_db, ·) spans over every phase:
    /// [p(sir, 1), p(sir, 0)], widened by kBandSlack on each side.  A draw
    /// below `lo` is a corruption and a draw at or above `hi` is not, whatever
    /// the phase.  `inner` holds p(sir, 3/4), p(sir, 1/2) and p(sir, 1/4), so
    /// each quarter of the phase range has its own narrower band.  Costs one
    /// exp: p(sir, φ)'s exponential is p(sir, 1)'s times e^(2·spread/slope·
    /// (1 − φ)), factors computed once per model.  Non-finite or inverted
    /// bounds (a negative phase spread) come back as [-1, 2] with NaN inner
    /// edges, which decide no draw in [0, 1).
    struct CorruptionBand {
        double lo = -1.0;
        double hi = 2.0;
        std::array<double, 3> inner{kNoEdge, kNoEdge, kNoEdge};
    };
    [[nodiscard]] CorruptionBand corruption_band(double sir_db) const noexcept;

    /// Exactly `u < byte_corruption_prob(sir_db, phase_quality)`, but only
    /// evaluates the logistic when `u` falls inside the band of the phase's
    /// quarter (`band` must be corruption_band(sir_db)).  The medium computes
    /// one band per overlap segment, so most overlapped bytes cost two
    /// comparisons.
    [[nodiscard]] bool byte_corrupted(double u, double sir_db, double phase_quality,
                                      const CorruptionBand& band) const noexcept {
        if (u < band.lo) return true;
        if (u >= band.hi) return false;
        // Quarter q, counted down from phase 1, spans p at its upper phase
        // edge to p at its lower one.
        const int q =
            3 - (phase_quality >= 0.25) - (phase_quality >= 0.5) - (phase_quality >= 0.75);
        if (q > 0 && u < band.inner[q - 1] - kBandSlack) return true;
        if (q < 3 && u >= band.inner[q] + kBandSlack) return false;
        return u < byte_corruption_prob(sir_db, phase_quality);
    }

    /// An upper bound on byte_corruption_prob(sir_db, 0.5) that costs no exp:
    /// the logistic 1 − 1/(1 + e^a) is at most e^a = 2^−x, so 2^(1−⌊x⌋) plus
    /// the band's slack; 2 when x < 1 or is not a number.
    [[nodiscard]] double neutral_phase_bound(double sir_db) const noexcept;

    [[nodiscard]] const CaptureParams& params() const noexcept { return params_; }

private:
    static constexpr double kNoEdge = std::numeric_limits<double>::quiet_NaN();

    CaptureParams params_;
    /// e^(2·spread/slope·k/4), k = 1..4: p(sir, 1 − k/4)'s exponential over
    /// p(sir, 1)'s.
    std::array<double, 4> phase_factors_{};
};

}  // namespace ble::sim
