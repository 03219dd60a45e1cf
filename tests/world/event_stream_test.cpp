// The tentpole guarantee of the obs layer: a trial's event stream is a pure
// function of (config, seed).  These tests pin it end to end — the same
// campaign run serially and on a worker pool must produce bit-identical
// per-trial JSONL streams, and a per-trial sink must see a whole trial's
// story on an isolated bus.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <variant>

#include "link/trace.hpp"
#include "obs/metrics.hpp"
#include "obs/sinks.hpp"
#include "world/experiment.hpp"

namespace injectable::world {
namespace {

ExperimentConfig small_config() {
    ExperimentConfig config;
    config.name = "event-stream-test";
    config.runs = 3;
    config.max_attempts = 60;
    config.base_seed = 4242;
    return config;
}

/// Runs the campaign with `jobs` workers, capturing every trial's event
/// stream as JSONL keyed by the trial world's seed (setup retries get their
/// own worlds, hence their own keys).
std::map<std::uint64_t, std::string> capture_streams(ExperimentConfig config, int jobs) {
    std::map<std::uint64_t, ble::obs::JsonlTraceSink> sinks;
    std::mutex mutex;
    config.jobs = jobs;
    config.per_trial_sinks = [&sinks, &mutex](ble::obs::EventBus& bus, std::uint64_t seed) {
        const std::lock_guard lock(mutex);
        bus.attach(sinks.try_emplace(seed, ble::link::append_frame_description).first->second);
    };
    (void)run_series(config);
    std::map<std::uint64_t, std::string> streams;
    for (auto& [seed, sink] : sinks) streams[seed] = sink.take();
    return streams;
}

TEST(EventStreamTest, SerialAndParallelStreamsAreBitIdentical) {
    const auto serial = capture_streams(small_config(), 1);
    const auto parallel = capture_streams(small_config(), 4);

    ASSERT_FALSE(serial.empty());
    ASSERT_EQ(serial.size(), parallel.size());
    for (const auto& [seed, stream] : serial) {
        const auto it = parallel.find(seed);
        ASSERT_NE(it, parallel.end()) << "seed " << seed << " missing in parallel run";
        EXPECT_EQ(stream, it->second) << "event stream for seed " << seed << " diverged";
    }
}

TEST(EventStreamTest, MetricsSinkSeesTheWholeTrial) {
    ExperimentConfig config = small_config();
    ble::obs::MetricsRegistry registry;
    ble::obs::MetricsSink metrics(registry);
    config.per_trial_sinks = [&metrics](ble::obs::EventBus& bus, std::uint64_t) {
        bus.attach(metrics);
    };
    World w(config.world, config.base_seed);
    const RunResult result = run_injection_experiment(w, config, config.base_seed);
    ASSERT_TRUE(result.established);

    const auto c = registry.snapshot().counters;
    EXPECT_GT(c.at("tx_frames"), 0u);
    EXPECT_GT(c.at("rx_delivered"), 0u);
    EXPECT_GE(c.at("conn_opened"), 2u);  // both victims armed their state machines
    EXPECT_GT(c.at("conn_events"), 0u);
    EXPECT_GT(c.at("windows_opened"), 0u);
    EXPECT_GT(result.attempts, 0);
    EXPECT_EQ(c.at("injection_attempts"), static_cast<std::uint64_t>(result.attempts));
}

TEST(EventStreamTest, AttemptHookRidesTheBus) {
    // A per-attempt hook is a bus subscription to InjectionAttempt, the same
    // form `paper_eval injection_outcomes` uses.
    ExperimentConfig config = small_config();
    int hook_calls = 0;
    int last_attempt = 0;
    int last_report_attempt = 0;
    config.per_trial_sinks = [&](ble::obs::EventBus& bus, std::uint64_t) {
        bus.subscribe([&](const ble::obs::Event& event) {
            const auto* attempt = std::get_if<ble::obs::InjectionAttempt>(&event);
            if (attempt == nullptr) return;
            ++hook_calls;
            last_attempt = attempt->attempt;
            ASSERT_NE(attempt->report, nullptr);
            last_report_attempt = attempt->report->attempt;
        });
    };
    World w(config.world, config.base_seed);
    const RunResult result = run_injection_experiment(w, config, config.base_seed);
    ASSERT_TRUE(result.established);
    EXPECT_EQ(hook_calls, result.attempts);
    EXPECT_EQ(last_attempt, result.attempts);
    EXPECT_EQ(last_report_attempt, result.attempts);
}

TEST(EventStreamTest, TraceDirWritesPerTrialJsonl) {
    const std::string dir = ::testing::TempDir();
    ExperimentConfig config = small_config();
    config.name = "trace dir test";  // exercises name sanitization
    config.runs = 1;
    // Pin the run count: a surrounding INJECTABLE_RUNS (e.g. a CI campaign
    // environment) must not change what this test asserts.
    const char* old_runs = std::getenv("INJECTABLE_RUNS");
    const std::string saved_runs = old_runs ? old_runs : "";
    unsetenv("INJECTABLE_RUNS");
    ASSERT_EQ(setenv("INJECTABLE_TRACE_DIR", dir.c_str(), 1), 0);
    ASSERT_EQ(setenv("INJECTABLE_TRACE_ALL", "1", 1), 0);
    const auto results = run_series(config);
    unsetenv("INJECTABLE_TRACE_DIR");
    unsetenv("INJECTABLE_TRACE_ALL");
    if (old_runs != nullptr) setenv("INJECTABLE_RUNS", saved_runs.c_str(), 1);

    ASSERT_EQ(results.size(), 1u);
    const std::string path =
        dir + "/trace-dir-test-seed" + std::to_string(results[0].seed) + ".jsonl";
    FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr) << "expected trace at " << path;
    char head[16] = {};
    const std::size_t n = std::fread(head, 1, sizeof(head) - 1, f);
    std::fclose(f);
    std::remove(path.c_str());
    ASSERT_GT(n, 6u);
    EXPECT_EQ(std::string(head).rfind("{\"e\":\"", 0), 0u);  // JSONL from byte 0
}

}  // namespace
}  // namespace injectable::world
