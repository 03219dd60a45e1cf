#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sim/capture.hpp"

namespace ble::sim {
namespace {

TEST(CaptureModelTest, StrongSignalSurvives) {
    CaptureModel model;
    // +20 dB SIR: corruption negligible regardless of phase.
    EXPECT_LT(model.byte_corruption_prob(20.0, 0.0), 0.01);
    EXPECT_LT(model.byte_corruption_prob(20.0, 1.0), 0.01);
}

TEST(CaptureModelTest, BuriedSignalCorrupts) {
    CaptureModel model;
    EXPECT_GT(model.byte_corruption_prob(-40.0, 1.0), 0.98);
    EXPECT_GT(model.byte_corruption_prob(-30.0, 0.5), 0.95);
}

TEST(CaptureModelTest, MonotoneInSir) {
    CaptureModel model;
    double prev = 1.0;
    for (double sir = -30.0; sir <= 30.0; sir += 1.0) {
        const double p = model.byte_corruption_prob(sir, 0.5);
        EXPECT_LE(p, prev + 1e-12) << "at SIR " << sir;
        prev = p;
    }
}

TEST(CaptureModelTest, PhaseShiftsEffectiveSir) {
    CaptureModel model;
    // Neutral phase at the logistic midpoint -> 0.5.
    const double mid = model.params().mid_sir_db;
    EXPECT_NEAR(model.byte_corruption_prob(mid, 0.5), 0.5, 1e-9);
    // Good phase helps, bad phase hurts.
    EXPECT_LT(model.byte_corruption_prob(mid, 1.0), 0.5);
    EXPECT_GT(model.byte_corruption_prob(mid, 0.0), 0.5);
}

TEST(CaptureModelTest, PhaseSpreadMatchesParameter) {
    CaptureParams params;
    params.phase_spread_db = 4.0;
    CaptureModel model(params);
    // phase 1.0 == SIR shifted by +4 dB.
    EXPECT_NEAR(model.byte_corruption_prob(0.0, 1.0),
                model.byte_corruption_prob(4.0, 0.5), 1e-9);
    EXPECT_NEAR(model.byte_corruption_prob(0.0, 0.0),
                model.byte_corruption_prob(-4.0, 0.5), 1e-9);
}

TEST(CaptureModelTest, PhaseQualityClamped) {
    CaptureModel model;
    EXPECT_NEAR(model.byte_corruption_prob(0.0, 2.0),
                model.byte_corruption_prob(0.0, 1.0), 1e-9);
    EXPECT_NEAR(model.byte_corruption_prob(0.0, -1.0),
                model.byte_corruption_prob(0.0, 0.0), 1e-9);
}

TEST(CaptureModelTest, BandBracketsEveryPhase) {
    CaptureModel model;
    for (double sir = -40.0; sir <= 40.0; sir += 0.5) {
        const CaptureModel::CorruptionBand band = model.corruption_band(sir);
        EXPECT_LT(band.hi - band.lo, 1.0) << "at SIR " << sir;  // a real band, not the fallback
        for (double phase = 0.0; phase <= 1.0; phase += 1.0 / 64) {
            const double p = model.byte_corruption_prob(sir, phase);
            EXPECT_LE(band.lo, p) << "at SIR " << sir << ", phase " << phase;
            EXPECT_GE(band.hi, p) << "at SIR " << sir << ", phase " << phase;
        }
    }
    // A negative spread inverts the phase order: every draw takes the exact
    // path.
    CaptureParams inverted;
    inverted.phase_spread_db = -3.0;
    const CaptureModel::CorruptionBand fallback = CaptureModel(inverted).corruption_band(0.0);
    EXPECT_EQ(fallback.lo, -1.0);
    EXPECT_EQ(fallback.hi, 2.0);
}

/// Parameter sets far from the defaults, for the bracket tests.
std::vector<CaptureParams> bracket_param_sets() {
    std::vector<CaptureParams> sets(7);
    sets[1].phase_spread_db = 0.0;
    sets[2].phase_spread_db = 30.0;
    sets[3].slope_db = 0.05;
    sets[4].slope_db = 40.0;
    sets[5].mid_sir_db = 25.0;
    sets[6].slope_db = 0.5;
    sets[6].phase_spread_db = 12.0;
    return sets;
}

/// SIRs from -40 to +80 dB in 0.01 dB steps, each with its neighbours one ulp
/// below and above.
std::vector<double> bracket_sirs() {
    std::vector<double> sirs;
    for (int centi = -4000; centi <= 8000; ++centi) {
        const double sir = centi / 100.0;
        sirs.insert(sirs.end(), {std::nextafter(sir, -1e9), sir, std::nextafter(sir, 1e9)});
    }
    return sirs;
}

TEST(CaptureModelTest, BandBracketsEveryPhaseAtUlpSteps) {
    // The band's edges scale the best end's exponential by powers of
    // e^(2·spread/slope) instead of evaluating each phase; they must still
    // hold p at the extreme and quarter phases, their one-ulp neighbours and
    // random ones: within [lo, hi], and within the phase's quarter, which
    // runs from p at its upper phase edge (inner[q - 1], or lo) to p at its
    // lower one (inner[q], or hi).
    constexpr double slack = CaptureModel::kBandSlack;
    Rng rng(77);
    long checked = 0;
    long real_bands = 0;
    for (const CaptureParams& params : bracket_param_sets()) {
        const CaptureModel model(params);
        for (const double sir : bracket_sirs()) {
            const CaptureModel::CorruptionBand band = model.corruption_band(sir);
            if (band.hi - band.lo < 1.0) ++real_bands;  // not the [-1, 2] fallback
            const double phases[] = {0.0,  0x1.0p-53, std::nextafter(0.25, 0.0), 0.25,
                                     std::nextafter(0.5, 0.0), 0.5, std::nextafter(0.5, 1.0),
                                     std::nextafter(0.75, 0.0), 0.75, 1.0 - 0x1.0p-53,
                                     1.0,  rng.next_double()};
            for (const double phase : phases) {
                const double p = model.byte_corruption_prob(sir, phase);
                const int q = phase >= 0.75 ? 0 : phase >= 0.5 ? 1 : phase >= 0.25 ? 2 : 3;
                const double below = q == 0 ? band.lo : band.inner[q - 1] - slack;
                const double above = q == 3 ? band.hi : band.inner[q] + slack;
                ++checked;
                ASSERT_LE(band.lo, p) << std::hexfloat << "sir " << sir << " phase " << phase
                                      << " slope " << params.slope_db;
                ASSERT_GE(band.hi, p) << std::hexfloat << "sir " << sir << " phase " << phase
                                      << " slope " << params.slope_db;
                ASSERT_LE(below, p) << std::hexfloat << "sir " << sir << " phase " << phase
                                    << " slope " << params.slope_db;
                ASSERT_GE(above, p) << std::hexfloat << "sir " << sir << " phase " << phase
                                    << " slope " << params.slope_db;
            }
        }
    }
    EXPECT_GT(checked, 2000000);
    EXPECT_GT(real_bands, 200000);
}

TEST(CaptureModelTest, NeutralPhaseBoundBracketsTheLogistic) {
    // The medium compares noise-only draws with the bound before it evaluates
    // the logistic, so the bound must never fall below p(sir, 0.5); and it
    // must be tight enough to skip that evaluation: at most 8p plus the slack.
    long bounded = 0;
    for (const CaptureParams& params : bracket_param_sets()) {
        const CaptureModel model(params);
        for (const double sir : bracket_sirs()) {
            const double p = model.byte_corruption_prob(sir, 0.5);
            const double bound = model.neutral_phase_bound(sir);
            ASSERT_GE(bound, p) << std::hexfloat << "sir " << sir << " slope "
                                << params.slope_db << " mid " << params.mid_sir_db;
            if (bound >= 1.0) continue;
            ++bounded;
            ASSERT_LE(bound, 8.0 * p + 1.01e-9) << std::hexfloat << "sir " << sir;
        }
    }
    EXPECT_GT(bounded, 150000);
    // Saturated and undefined exponents: 0 against the tiniest bound, 1 and
    // NaN against no bound.
    const CaptureModel model;
    EXPECT_GE(model.neutral_phase_bound(INFINITY), 0.0);
    EXPECT_LT(model.neutral_phase_bound(INFINITY), 2e-9);
    EXPECT_EQ(model.neutral_phase_bound(-INFINITY), 2.0);
    EXPECT_EQ(model.neutral_phase_bound(NAN), 2.0);
}

TEST(CaptureModelTest, BandDecisionMatchesTheExactFormula) {
    // Seeded property: deciding from the band first never changes a verdict
    // of `u < byte_corruption_prob(sir, phase)` — for random draws, for draws
    // placed exactly on, just below and just above the probability, the
    // band's ends and its inner edges, for phases on the quarter edges, and
    // for parameter sets far from the defaults.
    std::vector<CaptureParams> param_sets(6);
    param_sets[1].phase_spread_db = 0.0;
    param_sets[2].phase_spread_db = -3.0;
    param_sets[3].phase_spread_db = 30.0;
    param_sets[4].slope_db = 0.05;
    param_sets[5].slope_db = 40.0;
    Rng rng(20211);
    long decisions = 0;
    long mismatches = 0;
    std::string first_mismatch;
    for (const CaptureParams& params : param_sets) {
        const CaptureModel model(params);
        for (int trial = 0; trial < 20000; ++trial) {
            const double sir = rng.uniform(-120.0, 120.0);
            const double phase = trial % 7 == 0   ? static_cast<double>(trial % 3) / 2.0
                                 : trial % 7 == 1 ? static_cast<double>(trial % 5) / 4.0
                                                  : rng.next_double();
            const double p = model.byte_corruption_prob(sir, phase);
            const CaptureModel::CorruptionBand band = model.corruption_band(sir);
            const double slack = CaptureModel::kBandSlack;
            const double draws[] = {rng.next_double(),
                                    p,
                                    std::nextafter(p, 0.0),
                                    std::nextafter(p, 1.0),
                                    band.lo,
                                    std::nextafter(band.lo, 0.0),
                                    band.hi,
                                    std::nextafter(band.hi, 0.0),
                                    band.inner[trial % 3] - slack,
                                    std::nextafter(band.inner[trial % 3] - slack, 0.0),
                                    band.inner[trial % 3] + slack,
                                    std::nextafter(band.inner[trial % 3] + slack, 0.0)};
            for (const double u : draws) {
                if (!(u >= 0.0 && u < 1.0)) continue;  // next_double() never yields it
                ++decisions;
                if (model.byte_corrupted(u, sir, phase, band) == (u < p)) continue;
                if (mismatches++ == 0) {
                    std::ostringstream out;
                    out << std::hexfloat << "sir " << sir << " phase " << phase << " u " << u
                        << " spread " << params.phase_spread_db << " slope " << params.slope_db;
                    first_mismatch = out.str();
                }
            }
        }
    }
    EXPECT_GT(decisions, 900000);
    EXPECT_EQ(mismatches, 0) << "first: " << first_mismatch;
}

}  // namespace
}  // namespace ble::sim
