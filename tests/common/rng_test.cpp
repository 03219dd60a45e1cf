#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace ble {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiverge) {
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) same += (a.next_u64() == b.next_u64()) ? 1 : 0;
    EXPECT_EQ(same, 0);
}

TEST(RngTest, DoubleInUnitInterval) {
    Rng rng(7);
    for (int i = 0; i < 10'000; ++i) {
        const double v = rng.next_double();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(RngTest, NextBelowRespectsBound) {
    Rng rng(9);
    for (int i = 0; i < 10'000; ++i) EXPECT_LT(rng.next_below(37), 37u);
    EXPECT_EQ(rng.next_below(0), 0u);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(RngTest, UniformMeanApproximatelyCentred) {
    Rng rng(11);
    double sum = 0.0;
    constexpr int kN = 100'000;
    for (int i = 0; i < kN; ++i) sum += rng.uniform(-20.0, 20.0);
    EXPECT_NEAR(sum / kN, 0.0, 0.2);
}

TEST(RngTest, NormalMomentsMatch) {
    Rng rng(13);
    double sum = 0.0;
    double sq = 0.0;
    constexpr int kN = 100'000;
    for (int i = 0; i < kN; ++i) {
        const double v = rng.normal(5.0, 2.0);
        sum += v;
        sq += v * v;
    }
    const double mean = sum / kN;
    const double var = sq / kN - mean * mean;
    EXPECT_NEAR(mean, 5.0, 0.05);
    EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(RngTest, ForkIsIndependent) {
    Rng parent(17);
    Rng child = parent.fork();
    // Child stream differs from the parent's continuation.
    int same = 0;
    for (int i = 0; i < 100; ++i) same += (parent.next_u64() == child.next_u64()) ? 1 : 0;
    EXPECT_EQ(same, 0);
}

TEST(RngTest, ForkChildUnaffectedByLaterParentDraws) {
    // The fork-order reproducibility contract: a child's stream is fully
    // determined at fork time.  Draining the parent afterwards must not
    // perturb a previously forked child.
    Rng parent_a(99);
    Rng child_a = parent_a.fork();

    Rng parent_b(99);
    Rng child_b = parent_b.fork();
    for (int i = 0; i < 1000; ++i) parent_b.next_u64();  // extra parent traffic

    for (int i = 0; i < 100; ++i) EXPECT_EQ(child_a.next_u64(), child_b.next_u64());
}

TEST(RngTest, GoldenSequencePinned) {
    // Frozen outputs: seeds map to trial outcomes across the whole repo
    // (benches, TrialRunner, regression baselines), so the generator must
    // never silently change.
    Rng rng(0xDEADBEEFu);
    const std::uint64_t expected[] = {
        0xc5555444a74d7e83ULL,
        0x65c30d37b4b16e38ULL,
        0x54f773200a4efa23ULL,
        0x429aed75fb958af7ULL,
    };
    for (const std::uint64_t want : expected) EXPECT_EQ(rng.next_u64(), want);

    Rng parent(17);
    Rng child = parent.fork();
    const std::uint64_t expected_child[] = {
        0x45772de1f13eb805ULL,
        0x4bf0a0bc85196ca8ULL,
        0x9a7257e51f713f07ULL,
        0x9c2de11a6ec888b3ULL,
    };
    for (const std::uint64_t want : expected_child) EXPECT_EQ(child.next_u64(), want);
}

TEST(RngTest, ChanceExtremes) {
    Rng rng(19);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(RngTest, ChanceThresholdIsChanceAsAnInteger) {
    // `(next_u64() >> 11) < chance_threshold(p)` must be `next_double() < p` for
    // every draw: check the draws next to the threshold for probabilities on
    // and one ulp off multiples of 2^-53, random ones, and the edge values.
    std::vector<double> probabilities = {0.0,  -0.0, -1.0,      1.0,       2.0,
                                         0.5,  1e-300, 0x1.0p-53, 0x1.8p-53, 0x1.0p-60,
                                         NAN,  INFINITY, -INFINITY};
    Rng rng(2021);
    for (int i = 0; i < 2000; ++i) {
        const double on_grid = static_cast<double>(rng.next_u64() >> 11) * 0x1.0p-53;
        const double random = rng.next_double();
        for (const double p : {on_grid, random}) {
            probabilities.insert(probabilities.end(),
                                 {p, std::nextafter(p, 0.0), std::nextafter(p, 1.0)});
        }
    }
    long checked = 0;
    for (const double p : probabilities) {
        const std::uint64_t threshold = Rng::chance_threshold(p);
        ASSERT_LE(threshold, std::uint64_t{1} << 53) << "p " << p;
        for (const std::uint64_t m : {threshold - 1, threshold, threshold + 1}) {
            if (m >= std::uint64_t{1} << 53) continue;  // no draw yields it
            ++checked;
            EXPECT_EQ(m < threshold, static_cast<double>(m) * 0x1.0p-53 < p)
                << std::hexfloat << "p " << p << " m " << m;
        }
    }
    EXPECT_GT(checked, 20000);
}

}  // namespace
}  // namespace ble
