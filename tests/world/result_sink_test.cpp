// ResultSink extraction: run_series through explicit sinks — channel gating,
// the whole-series record, and equivalence with the legacy environment edge.
#include "world/result_sink.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "world/experiment.hpp"

namespace injectable::world {
namespace {

ExperimentConfig tiny_config() {
    ExperimentConfig config;
    config.name = "sink test";
    config.runs = 5;
    config.base_seed = 4242;
    config.jobs = 1;
    return config;
}

/// Records every sink callback in memory.
class CaptureSink final : public ResultSink {
public:
    explicit CaptureSink(ResultChannels channels) : channels_(channels) {}

    [[nodiscard]] const ResultChannels& channels() const noexcept override { return channels_; }

    void on_artifact(const TrialArtifact& artifact) override {
        const std::lock_guard lock(mutex_);
        artifacts.push_back(artifact);
    }

    void on_series_record(const ExperimentConfig& config, const SeriesSlice& slice,
                          const std::vector<RunResult>& results,
                          const ble::obs::MetricsSnapshot* metrics) override {
        record_calls++;
        record_slice = slice;
        record_results = results;
        record_json = to_json(config, results, metrics);
        had_metrics = metrics != nullptr;
        if (metrics != nullptr) metrics_json = metrics->to_json();
    }

    void on_progress(const std::string&, int done, int total) override {
        const std::lock_guard lock(mutex_);
        progress_calls++;
        last_done = done;
        last_total = total;
    }

    std::vector<TrialArtifact> artifacts;
    int record_calls = 0;
    SeriesSlice record_slice{};
    std::vector<RunResult> record_results;
    std::string record_json;
    std::string metrics_json;
    bool had_metrics = false;
    int progress_calls = 0;
    int last_done = 0;
    int last_total = 0;

private:
    ResultChannels channels_;
    std::mutex mutex_;
};

TEST(ResultSink, NullSinkIsAPureComputeAndDeterministic) {
    NullResultSink sink;
    const auto a = run_series(tiny_config(), sink);
    const auto b = run_series(tiny_config(), sink);
    ASSERT_EQ(a.size(), 5u);
    EXPECT_EQ(a, b);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].seed, 4242u + i);
        EXPECT_EQ(a[i].wall_ms, 0.0);  // wall_clock channel off
    }
}

TEST(ResultSink, ChannelsGateArtifactsRecordMetricsAndProgress) {
    ResultChannels channels;
    channels.series_record = true;
    channels.metrics = true;
    channels.traces = true;
    channels.trace_all = true;
    channels.progress = true;
    channels.wall_clock = false;
    CaptureSink sink(channels);
    const auto results = run_series(tiny_config(), sink);

    EXPECT_EQ(sink.record_calls, 1);
    EXPECT_EQ(sink.record_slice.first, 0);
    EXPECT_EQ(sink.record_slice.count, 5);
    EXPECT_EQ(sink.record_results, results);
    EXPECT_TRUE(sink.had_metrics);
    EXPECT_FALSE(sink.metrics_json.empty());
    EXPECT_EQ(sink.progress_calls, 5);
    EXPECT_EQ(sink.last_done, 5);
    EXPECT_EQ(sink.last_total, 5);
    // trace_all: one event-trace artifact per trial, stems seed-keyed.
    ASSERT_EQ(sink.artifacts.size(), 5u);
    for (const TrialArtifact& artifact : sink.artifacts) {
        EXPECT_EQ(artifact.kind, ArtifactKind::kEventTrace);
        EXPECT_EQ(artifact.stem, "sink-test-seed" + std::to_string(artifact.seed));
        EXPECT_FALSE(artifact.content.empty());
    }

    // All channels off: nothing is delivered.
    CaptureSink quiet(ResultChannels{});
    (void)run_series(tiny_config(), quiet);
    EXPECT_EQ(quiet.record_calls, 0);
    EXPECT_TRUE(quiet.artifacts.empty());
    EXPECT_EQ(quiet.progress_calls, 0);
}

TEST(ResultSink, LegacyEnvEdgeMatchesExplicitSinkBytes) {
    // The legacy run_series(config) overload must be nothing more than
    // sink_paths_from_env() + PathsResultSink around the core.
    const std::string path = ::testing::TempDir() + "/result_sink_env.jsonl";
    std::remove(path.c_str());
    ::setenv("INJECTABLE_JSON", path.c_str(), 1);
    ExperimentConfig config = tiny_config();
    const auto legacy = run_series(config);
    ::unsetenv("INJECTABLE_JSON");

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::remove(path.c_str());

    ResultChannels channels;
    channels.series_record = true;
    channels.metrics = true;  // INJECTABLE_JSON implies metrics collection
    CaptureSink sink(channels);
    const auto direct = run_series(config, sink);
    EXPECT_EQ(direct, legacy);
    // The env run records wall_ms (nonzero), the capture run pinned it to 0 —
    // both serialize the same deterministic fields; compare those via the
    // parsed results rather than raw bytes.
    EXPECT_EQ(sink.record_results, legacy);
    EXPECT_NE(buffer.str().find("\"name\":\"sink test\""), std::string::npos);
}

TEST(ResultSink, SinkPathsFromEnvReadsTheClassicVariables) {
    ::setenv("INJECTABLE_JSON", "/tmp/x.jsonl", 1);
    ::setenv("INJECTABLE_TRACE_DIR", "/tmp/tr", 1);
    ::setenv("INJECTABLE_TRACE_ALL", "1", 1);
    ::setenv("INJECTABLE_METRICS", "1", 1);
    ::setenv("INJECTABLE_PROF", "1", 1);
    const SinkPaths paths = sink_paths_from_env();
    EXPECT_EQ(paths.json_path, "/tmp/x.jsonl");
    EXPECT_EQ(paths.trace_dir, "/tmp/tr");
    EXPECT_TRUE(paths.trace_all);
    EXPECT_TRUE(paths.metrics_print);
    EXPECT_TRUE(paths.profile);
    ::unsetenv("INJECTABLE_JSON");
    ::unsetenv("INJECTABLE_TRACE_DIR");
    ::unsetenv("INJECTABLE_TRACE_ALL");
    ::unsetenv("INJECTABLE_METRICS");
    ::unsetenv("INJECTABLE_PROF");

    const SinkPaths clear = sink_paths_from_env();
    EXPECT_TRUE(clear.json_path.empty());
    EXPECT_FALSE(clear.trace_all);

    PathsResultSink sink({});
    EXPECT_FALSE(sink.channels().series_record);
    EXPECT_FALSE(sink.channels().traces);
    EXPECT_TRUE(sink.channels().wall_clock);
}

/// Runs one trial through a PathsResultSink on `paths` and returns the
/// message of the write failure it threw ("" when nothing was thrown).
std::string write_failure(const SinkPaths& paths) {
    ExperimentConfig config = tiny_config();
    config.runs = 1;
    PathsResultSink sink(paths);
    try {
        (void)run_series(config, sink);
    } catch (const std::runtime_error& e) {
        return e.what();
    }
    return "";
}

/// A directory that does not exist, so nothing under it can be created.
std::string missing_dir() { return ::testing::TempDir() + "/result-sink-missing-dir"; }

TEST(ResultSink, UnwritableTraceDirThrowsNamingThePath) {
    SinkPaths paths;
    paths.trace_dir = missing_dir();
    paths.trace_all = true;
    EXPECT_EQ(write_failure(paths),
              "cannot write " + missing_dir() + "/sink-test-seed4242.jsonl");
}

TEST(ResultSink, UnwritablePcapDirThrowsNamingThePath) {
    SinkPaths paths;
    paths.pcap_dir = missing_dir();
    EXPECT_EQ(write_failure(paths),
              "cannot write " + missing_dir() + "/sink-test-seed4242.pcap");
}

TEST(ResultSink, UnwritableJsonPathThrowsNamingThePath) {
    SinkPaths paths;
    paths.json_path = missing_dir() + "/records.jsonl";
    EXPECT_EQ(write_failure(paths), "cannot write " + paths.json_path);
}

}  // namespace
}  // namespace injectable::world
