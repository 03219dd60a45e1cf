// run_series reuses one set of observation channels per worker: the trace
// and capture buffers and the metric cells carry their storage from trial to
// trial.  These tests pin that the reuse is invisible in the output: each
// trace opens with its own trial's meta line, and a trial's trace, capture
// and metrics are the bytes a fresh series of that trial alone produces, even
// after a longer trial ran on the same worker.
#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "world/experiment.hpp"
#include "world/replay.hpp"

namespace injectable::world {
namespace {

/// Keeps every artifact by (kind, seed); safe for concurrent workers.
class KeepingSink final : public ResultSink {
public:
    KeepingSink() {
        channels_.traces = true;
        channels_.trace_all = true;
        channels_.captures = true;
        channels_.metrics = true;
        channels_.wall_clock = false;
    }

    [[nodiscard]] const ResultChannels& channels() const noexcept override { return channels_; }
    void on_artifact(const TrialArtifact& artifact) override {
        const std::lock_guard<std::mutex> lock(mutex_);
        auto& kept = artifact.kind == ArtifactKind::kEventTrace ? traces : captures;
        kept[artifact.seed] = artifact.content;
    }
    void on_series_record(const ExperimentConfig&, const SeriesSlice&,
                          const std::vector<RunResult>&,
                          const ble::obs::MetricsSnapshot* snapshot) override {
        if (snapshot != nullptr) metrics = *snapshot;
    }
    void on_progress(const std::string&, int, int) override {}

    std::map<std::uint64_t, std::string> traces;
    std::map<std::uint64_t, std::string> captures;
    ble::obs::MetricsSnapshot metrics;

private:
    ResultChannels channels_;
    std::mutex mutex_;
};

std::string first_line(const std::string& text) { return text.substr(0, text.find('\n')); }

TEST(TrialChannelsTest, EveryTraceOpensWithItsTrialsMetaLine) {
    // The header is rendered once per series with only the seed written per
    // trial; the config makes every optional part of the line appear.
    ExperimentConfig config;
    config.name = "meta \"quoted\" \\ tab\t\x01 é";
    config.runs = 6;
    config.max_attempts = 40;
    config.base_seed = 5100;
    config.world.walls.push_back({{-1.0, -50.0}, {-1.0, 50.0}, 6.0});
    config.payload_override = ble::Bytes{0x04, 0x00, 0x04, 0x00, 0x52, 0x03, 0x00, 0x01};
    for (const int jobs : {1, 4}) {
        config.jobs = jobs;
        KeepingSink sink;
        (void)run_series(config, sink);
        ASSERT_EQ(sink.traces.size(), static_cast<std::size_t>(config.runs)) << "jobs " << jobs;
        for (const auto& [seed, trace] : sink.traces) {
            EXPECT_EQ(first_line(trace), experiment_meta_json(config, seed, kSetupRetries))
                << "jobs " << jobs << " seed " << seed;
        }
    }
}

TEST(TrialChannelsTest, ATrialOnAReusedWorkerMatchesAFreshSeriesOfItAlone) {
    // Exp 3 at 10 m: attempt counts, and so trace and capture lengths, vary
    // widely from trial to trial.
    ExperimentConfig config;
    config.name = "reuse";
    config.runs = 8;
    config.max_attempts = 300;
    config.base_seed = 3300;
    config.jobs = 1;  // one worker runs every trial, each after the one before
    config.world.attacker_pos = {-10.0, 0.0};
    KeepingSink series;
    (void)run_series(config, series);
    ASSERT_EQ(series.traces.size(), static_cast<std::size_t>(config.runs));

    int long_then_short = 0;
    ble::obs::MetricsSnapshot merged;
    for (int i = 0; i < config.runs; ++i) {
        const std::uint64_t seed = config.base_seed + static_cast<std::uint64_t>(i);
        ExperimentConfig alone = config;
        alone.runs = 1;
        alone.base_seed = seed;
        KeepingSink fresh;
        (void)run_series(alone, fresh);
        EXPECT_EQ(series.traces.at(seed), fresh.traces.at(seed)) << "trace of seed " << seed;
        EXPECT_EQ(series.captures.at(seed), fresh.captures.at(seed)) << "pcap of seed " << seed;
        merged.merge(fresh.metrics);
        if (i > 0 && series.traces.at(seed - 1).size() > series.traces.at(seed).size() &&
            series.captures.at(seed - 1).size() > series.captures.at(seed).size()) {
            ++long_then_short;
        }
    }
    // Any count or histogram a trial's cells carried over would show here.
    EXPECT_EQ(series.metrics, merged);
    EXPECT_GT(long_then_short, 0) << "no trial followed a longer one";
}

}  // namespace
}  // namespace injectable::world
