#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "world/experiment.hpp"
#include "world/trial_runner.hpp"

namespace injectable::world {
namespace {

/// Scoped BENCH_JOBS override (restores the previous value on destruction).
class ScopedBenchJobs {
public:
    explicit ScopedBenchJobs(const char* value) {
        if (const char* old = std::getenv("BENCH_JOBS")) saved_ = old;
        if (value) {
            ::setenv("BENCH_JOBS", value, 1);
        } else {
            ::unsetenv("BENCH_JOBS");
        }
    }
    ~ScopedBenchJobs() {
        if (saved_) {
            ::setenv("BENCH_JOBS", saved_->c_str(), 1);
        } else {
            ::unsetenv("BENCH_JOBS");
        }
    }

private:
    std::optional<std::string> saved_;
};

TEST(ResolveJobsTest, ExplicitRequestWinsOverEnvironment) {
    const ScopedBenchJobs env("5");
    EXPECT_EQ(resolve_jobs(3), 3);
    EXPECT_EQ(TrialRunner(2).jobs(), 2);
}

TEST(ResolveJobsTest, BenchJobsEnvironmentVariableApplies) {
    const ScopedBenchJobs env("5");
    EXPECT_EQ(resolve_jobs(), 5);
    EXPECT_EQ(TrialRunner().jobs(), 5);
}

TEST(ResolveJobsTest, FallsBackToHardwareAndNeverBelowOne) {
    {
        const ScopedBenchJobs env(nullptr);
        EXPECT_GE(resolve_jobs(), 1);
    }
    {
        const ScopedBenchJobs env("not-a-number");
        EXPECT_GE(resolve_jobs(), 1);
    }
    {
        const ScopedBenchJobs env("-4");
        EXPECT_GE(resolve_jobs(), 1);
    }
}

TEST(TrialRunnerTest, MapReturnsResultsOrderedByIndex) {
    TrialRunner runner(4);
    const auto results = runner.map(100, [](int i) { return i * i; });
    ASSERT_EQ(results.size(), 100u);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(results[static_cast<std::size_t>(i)], i * i);
}

TEST(TrialRunnerTest, MapRunsEveryTrialExactlyOnce) {
    std::vector<std::atomic<int>> calls(64);
    TrialRunner runner(8);
    (void)runner.map(64, [&](int i) {
        calls[static_cast<std::size_t>(i)].fetch_add(1);
        return i;
    });
    for (const auto& c : calls) EXPECT_EQ(c.load(), 1);
}

TEST(TrialRunnerTest, SingleWorkerRunsInline) {
    const auto main_id = std::this_thread::get_id();
    TrialRunner runner(1);
    const auto results =
        runner.map(8, [&](int i) { return std::this_thread::get_id() == main_id ? i : -1; });
    for (int i = 0; i < 8; ++i) EXPECT_EQ(results[static_cast<std::size_t>(i)], i);
}

TEST(TrialRunnerTest, EmptyAndNegativeCountsYieldNothing) {
    TrialRunner runner(4);
    EXPECT_TRUE(runner.map(0, [](int i) { return i; }).empty());
    EXPECT_TRUE(runner.map(-3, [](int i) { return i; }).empty());
}

TEST(TrialRunnerTest, FirstExceptionPropagatesToCaller) {
    TrialRunner parallel(4);
    EXPECT_THROW(
        (void)parallel.map(32,
                           [](int i) -> int {
                               if (i == 7) throw std::runtime_error("trial 7 exploded");
                               return i;
                           }),
        std::runtime_error);

    TrialRunner serial(1);
    EXPECT_THROW((void)serial.map(4,
                                  [](int i) -> int {
                                      if (i == 2) throw std::runtime_error("boom");
                                      return i;
                                  }),
                 std::runtime_error);
}

// The load-bearing guarantee: a parallel campaign is bit-identical to a
// serial one.  Trials are pure functions of (config, seed) and results are
// stored by index, so thread count and completion order must not show.
TEST(TrialRunnerTest, ParallelExperimentMatchesSerialBitForBit) {
    ExperimentConfig config;
    config.runs = 6;
    config.max_attempts = 40;
    config.base_seed = 4242;
    // Full paper baseline (fading + traffic) but a harsher geometry, so
    // trials mix outcomes: successes, give-ups and setup retries.
    config.world.attacker_pos = {6.0, 4.0};

    const auto trial = [&](std::uint64_t seed) {
        World w(config.world, seed);
        return run_injection_experiment_with_retry(w, config, seed, 3);
    };

    TrialRunner serial(1);
    TrialRunner parallel(4);
    const auto serial_results = serial.map(
        config.runs, [&](int i) { return trial(config.base_seed + static_cast<unsigned>(i)); });
    const auto parallel_results = parallel.map(
        config.runs, [&](int i) { return trial(config.base_seed + static_cast<unsigned>(i)); });

    ASSERT_EQ(serial_results.size(), parallel_results.size());
    for (std::size_t i = 0; i < serial_results.size(); ++i) {
        EXPECT_EQ(serial_results[i], parallel_results[i]) << "trial " << i << " diverged";
        EXPECT_EQ(serial_results[i].seed, config.base_seed + i);
    }
}

TEST(TrialRunnerTest, RetryPathIsDeterministic) {
    // A trial whose setup needs retries must still be a pure function of
    // (config, seed): the retry loop reseeds deterministically.
    ExperimentConfig config;
    config.max_attempts = 20;
    config.world.attacker_pos = {10.0, 8.0};  // sniffing often fails out here
    config.world.walls.push_back({{5.0, -10.0}, {5.0, 10.0}, 12.0});

    World wa(config.world, 77);
    World wb(config.world, 77);
    const RunResult a = run_injection_experiment_with_retry(wa, config, 77, 4);
    const RunResult b = run_injection_experiment_with_retry(wb, config, 77, 4);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.seed, 77u);  // records the base seed, not the retry seed
}

}  // namespace
}  // namespace injectable::world
