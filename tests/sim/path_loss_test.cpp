#include <gtest/gtest.h>

#include <cmath>

#include "sim/path_loss.hpp"

namespace ble::sim {
namespace {

TEST(PathLossTest, ReferenceLossAtOneMetre) {
    PathLossModel model;
    EXPECT_NEAR(model.mean_loss_db({0, 0}, {1, 0}), 40.0, 1e-9);
}

TEST(PathLossTest, LossGrowsWithDistance) {
    PathLossModel model;
    const double at2 = model.mean_loss_db({0, 0}, {2, 0});
    const double at10 = model.mean_loss_db({0, 0}, {10, 0});
    EXPECT_GT(at10, at2);
    // Log-distance slope: 10 * n * log10(10/2) with n = 2.2 -> 15.38 dB.
    EXPECT_NEAR(at10 - at2, 15.38, 0.05);
}

TEST(PathLossTest, VeryShortDistancesClamped) {
    PathLossModel model;
    // No infinite gain at zero distance.
    EXPECT_GT(model.mean_loss_db({0, 0}, {0, 0}), 0.0);
}

TEST(PathLossTest, WallAddsAttenuationWhenCrossed) {
    PathLossModel model;
    model.add_wall(Wall{{1, -5}, {1, 5}, 7.0});
    const double through = model.mean_loss_db({0, 0}, {2, 0});
    const double beside = model.mean_loss_db({0, 10}, {2, 10});
    EXPECT_NEAR(through - beside, 7.0, 1e-9);
}

TEST(PathLossTest, MultipleWallsStack) {
    PathLossModel model;
    model.add_wall(Wall{{1, -5}, {1, 5}, 6.0});
    model.add_wall(Wall{{2, -5}, {2, 5}, 6.0});
    const double through = model.mean_loss_db({0, 0}, {3, 0});
    PathLossModel bare;
    EXPECT_NEAR(through - bare.mean_loss_db({0, 0}, {3, 0}), 12.0, 1e-9);
}

TEST(PathLossTest, FadingHasConfiguredSigma) {
    PathLossParams params;
    params.fading_sigma_db = 6.0;
    PathLossModel model(params);
    Rng rng(42);
    double sum = 0, sq = 0;
    constexpr int kN = 20'000;
    for (int i = 0; i < kN; ++i) {
        const double v = model.mean_loss_db({0, 0}, {2, 0}) + model.fading_db(rng);
        sum += v;
        sq += v * v;
    }
    const double mean = sum / kN;
    const double var = sq / kN - mean * mean;
    EXPECT_NEAR(mean, model.mean_loss_db({0, 0}, {2, 0}), 0.15);
    EXPECT_NEAR(std::sqrt(var), 6.0, 0.15);
}

TEST(SegmentsIntersectTest, BasicCases) {
    EXPECT_TRUE(segments_intersect({0, 0}, {2, 2}, {0, 2}, {2, 0}));
    EXPECT_FALSE(segments_intersect({0, 0}, {1, 0}, {0, 1}, {1, 1}));
    // Touching endpoint counts as crossing.
    EXPECT_TRUE(segments_intersect({0, 0}, {1, 1}, {1, 1}, {2, 0}));
    // Collinear overlapping.
    EXPECT_TRUE(segments_intersect({0, 0}, {3, 0}, {1, 0}, {2, 0}));
    // Collinear disjoint.
    EXPECT_FALSE(segments_intersect({0, 0}, {1, 0}, {2, 0}, {3, 0}));
}

TEST(PositionTest, Distance) {
    EXPECT_NEAR(distance_m({0, 0}, {3, 4}), 5.0, 1e-12);
    EXPECT_EQ(distance_m({1, 1}, {1, 1}), 0.0);
}

}  // namespace
}  // namespace ble::sim
