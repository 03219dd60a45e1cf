#include <gtest/gtest.h>

#include <cmath>

#include "common/time.hpp"
#include "sim/sleep_clock.hpp"

namespace ble::sim {
namespace {

TEST(SleepClockTest, MeanReversionKeepsDriftInsideEnvelope) {
    // With reversion on, the drift hovers far from the declared bound.
    SleepClockParams params;
    params.sca_ppm = 250.0;
    SleepClock clock(params, Rng(21));
    double acc = 0.0;
    for (int i = 0; i < 5000; ++i) {
        (void)clock.to_global(1_ms);
        acc += std::abs(clock.current_ppm());
    }
    EXPECT_LT(acc / 5000.0, 125.0);  // mean |drift| well below the envelope
}

TEST(SleepClockTest, DriftBoundedBySca) {
    SleepClockParams params;
    params.sca_ppm = 20.0;
    SleepClock clock(params, Rng(1));
    for (int i = 0; i < 10'000; ++i) {
        (void)clock.to_global(1_ms);
        EXPECT_LE(std::abs(clock.current_ppm()), 20.0);
    }
}

TEST(SleepClockTest, ErrorScalesWithInterval) {
    SleepClockParams params;
    params.sca_ppm = 50.0;
    params.walk_step_ppm = 0.0;
    params.reversion = 0.0;
    params.initial_ppm = 50.0;  // pinned at the envelope
    SleepClock clock(params, Rng(2));
    // 50 ppm over 100 ms = 5 µs late.
    const Duration global = clock.to_global(100_ms);
    EXPECT_EQ(global - 100_ms, 5_us);
}

TEST(SleepClockTest, NegativeDriftRunsFast) {
    SleepClockParams params;
    params.sca_ppm = 100.0;
    params.walk_step_ppm = 0.0;
    params.reversion = 0.0;
    params.initial_ppm = -100.0;
    SleepClock clock(params, Rng(3));
    const Duration global = clock.to_global(1'000_ms);
    EXPECT_EQ(global - 1'000_ms, -100_us);
}

TEST(SleepClockTest, InitialPpmClampedToEnvelope) {
    SleepClockParams params;
    params.sca_ppm = 20.0;
    params.initial_ppm = 500.0;
    SleepClock clock(params, Rng(4));
    EXPECT_LE(clock.current_ppm(), 20.0);
}

TEST(SleepClockTest, WalkActuallyMoves) {
    SleepClockParams params;
    params.sca_ppm = 20.0;
    params.walk_step_ppm = 2.0;
    SleepClock clock(params, Rng(5));
    const double before = clock.current_ppm();
    double max_delta = 0.0;
    for (int i = 0; i < 100; ++i) {
        (void)clock.to_global(1_ms);
        max_delta = std::max(max_delta, std::abs(clock.current_ppm() - before));
    }
    EXPECT_GT(max_delta, 0.5);
}

TEST(SleepClockTest, ZeroDurationMapsToZero) {
    SleepClock clock(SleepClockParams{}, Rng(6));
    EXPECT_EQ(clock.to_global(0), 0);
}

TEST(SleepClockTest, DistinctSeedsDistinctDrift) {
    SleepClockParams params;
    SleepClock a(params, Rng(7));
    SleepClock b(params, Rng(8));
    EXPECT_NE(a.current_ppm(), b.current_ppm());
}

TEST(SleepClockTest, ToGlobalRoundsHalfAwayFromZeroLikeLlround) {
    // to_global scales by the rate it has just stepped to (current_ppm()
    // afterwards) and rounds like std::llround, halfway cases included.
    SleepClockParams params;
    params.sca_ppm = 500.0;
    params.walk_step_ppm = 50.0;
    SleepClock clock(params, Rng(3));
    Rng pick(4);
    for (int i = 0; i < 200'000; ++i) {
        // Mostly short intervals, where every fraction occurs, then long ones.
        const auto local = static_cast<Duration>(
            i % 2 == 0 ? pick.next_below(4'000'000) : pick.next_below(std::uint64_t{1} << 44));
        const Duration global = clock.to_global(local);
        const double scaled =
            static_cast<double>(local) * (1.0 + clock.current_ppm() * 1e-6);
        ASSERT_EQ(global, static_cast<Duration>(std::llround(scaled)))
            << "local " << local << ", rate " << clock.current_ppm();
    }
    // Exact halves: at a fixed rate of 2^-20 the scale is exactly 1 + 2^-20,
    // so 2^19 and 3 * 2^19 land on .5 and must round up.
    SleepClockParams fixed;
    fixed.sca_ppm = 1e6;
    fixed.walk_step_ppm = 0.0;
    fixed.reversion = 0.0;
    fixed.initial_ppm = 1e6 / 1048576.0;
    SleepClock exact(fixed, Rng(5));
    EXPECT_EQ(exact.to_global(524288), 524289);    // 524288.5
    EXPECT_EQ(exact.to_global(1572864), 1572866);  // 1572865.5
    EXPECT_EQ(exact.to_global(524287), 524287);    // just below .5
}

}  // namespace
}  // namespace ble::sim
