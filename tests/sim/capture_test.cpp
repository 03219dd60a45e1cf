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

TEST(CaptureModelTest, BandDecisionMatchesTheExactFormula) {
    // Seeded property: deciding from the band first never changes a verdict
    // of `u < byte_corruption_prob(sir, phase)` — for random draws, for draws
    // placed exactly on, just below and just above the probability and the
    // band's ends, and for parameter sets far from the defaults.
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
            const double phase = trial % 7 == 0 ? static_cast<double>(trial % 3) / 2.0
                                                : rng.next_double();
            const double p = model.byte_corruption_prob(sir, phase);
            const CaptureModel::CorruptionBand band = model.corruption_band(sir);
            const double draws[] = {rng.next_double(),
                                    p,
                                    std::nextafter(p, 0.0),
                                    std::nextafter(p, 1.0),
                                    band.lo,
                                    std::nextafter(band.lo, 0.0),
                                    band.hi,
                                    std::nextafter(band.hi, 0.0)};
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
    EXPECT_GT(decisions, 600000);
    EXPECT_EQ(mismatches, 0) << "first: " << first_mismatch;
}

}  // namespace
}  // namespace ble::sim
