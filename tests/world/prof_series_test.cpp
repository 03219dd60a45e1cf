// The work-counter half of the determinism contract: with the profile
// channel on, run_series exports the five prof.span.*.count work counters
// and the queue-depth gauge into the merged snapshot, and — because counts
// are a pure function of (config, seed), merged in trial-index order — the
// result is bit-identical for any worker count.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "world/experiment.hpp"

namespace injectable::world {
namespace {

ble::obs::MetricsSnapshot series_metrics(int jobs, bool profile, int runs = 4) {
    ExperimentConfig config;
    config.name = "prof-series-test";
    config.runs = runs;
    config.max_attempts = 60;
    config.base_seed = 917;
    config.jobs = jobs;
    ble::obs::MetricsSnapshot merged;
    config.on_series_metrics = [&merged](const ble::obs::MetricsSnapshot& snapshot) {
        merged = snapshot;
    };
    SinkPaths paths;
    paths.profile = profile;
    paths.wall_clock = false;
    PathsResultSink sink(paths);
    (void)run_series(config, sink);
    return merged;
}

TEST(ProfSeriesTest, SerialAndEightWorkerSnapshotsAreBitIdentical) {
    const std::string serial = series_metrics(1, true).to_json();
    const std::string parallel = series_metrics(8, true).to_json();
    ASSERT_NE(serial.find("prof."), std::string::npos);
    EXPECT_EQ(serial, parallel);
}

TEST(ProfSeriesTest, SnapshotCarriesTheInstrumentedSubsystems) {
    const ble::obs::MetricsSnapshot snap = series_metrics(2, true);
    // The baseline world hops with CSA#1, so CSA#2 has no count; nothing
    // else carries a prof. name.
    std::vector<std::string> prof_names;
    for (const auto& [name, value] : snap.counters) {
        if (name.rfind("prof.", 0) == 0) prof_names.push_back(name);
    }
    for (const auto& [name, gauge] : snap.gauges) {
        if (name.rfind("prof.", 0) == 0) prof_names.push_back(name);
    }
    for (const auto& [name, hist] : snap.histograms) {
        if (name.rfind("prof.", 0) == 0) prof_names.push_back(name);
    }
    const std::vector<std::string> expected = {
        "prof.span.link.conn.process_frame.count", "prof.span.link.csa1.hop.count",
        "prof.span.medium.deliver.count", "prof.span.sim.dispatch.count",
        "prof.gauge.sim.sched.queue_depth"};
    EXPECT_EQ(prof_names, expected);
    // One queue-depth sample per dispatch.
    EXPECT_EQ(snap.gauges.at("prof.gauge.sim.sched.queue_depth").samples,
              snap.counters.at("prof.span.sim.dispatch.count"));
}

TEST(ProfSeriesTest, ProfilingOffLeavesMetricsUntouched) {
    const std::string json = series_metrics(1, false, 2).to_json();
    ASSERT_FALSE(json.empty());
    EXPECT_EQ(json.find("prof."), std::string::npos)
        << "prof.* series must only exist when profiling was requested";
}

}  // namespace
}  // namespace injectable::world
