// run_series reuses one World and one set of observation channels per
// worker: the world is restarted for every trial, and the trace and capture
// buffers and the metric cells carry their storage from trial to trial.
// These tests pin that the reuse is invisible in the output: each trace
// opens with its own trial's meta line, and a trial's result, trace, capture
// and metrics are what a fresh series of that trial alone produces — after a
// longer trial, a lost session, a dropped victim link or a setup retry ran
// on the same worker, for every world shape a restart handles.
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

/// A series' outputs: results by index, artifacts and metrics by seed, and
/// the seed of every world the trials built or restarted (setup retries
/// included).
struct SeriesOutputs {
    std::vector<RunResult> results;
    std::map<std::uint64_t, std::string> traces;
    std::map<std::uint64_t, std::string> captures;
    ble::obs::MetricsSnapshot metrics;
    std::vector<std::uint64_t> worlds;
};

SeriesOutputs run_kept(ExperimentConfig config) {
    SeriesOutputs out;
    std::mutex mutex;
    config.per_trial_sinks = [&out, &mutex](ble::obs::EventBus&, std::uint64_t seed) {
        const std::lock_guard<std::mutex> lock(mutex);
        out.worlds.push_back(seed);
    };
    KeepingSink sink;
    out.results = run_series(config, sink);
    out.traces = std::move(sink.traces);
    out.captures = std::move(sink.captures);
    out.metrics = sink.metrics;
    return out;
}

/// One row of the reuse table: a series whose trials reach a restart path.
struct ReuseCase {
    const char* name;
    ExperimentConfig config;
};

ExperimentConfig reuse_config(const char* name, std::uint64_t base_seed, int runs) {
    ExperimentConfig config;
    config.name = name;
    config.runs = runs;
    config.max_attempts = 300;
    config.base_seed = base_seed;
    return config;
}

/// Exp 1's configuration (a master declaring 250 ppm on an 80 ppm crystal).
ExperimentConfig exp1(std::uint16_t hop_interval, std::uint64_t base_seed) {
    ExperimentConfig config = reuse_config("exp1", base_seed, 6);
    config.world.master_sca_ppm = 250.0;
    config.world.master_clock_ppm = 80.0;
    config.world.hop_interval = hop_interval;
    return config;
}

std::vector<ReuseCase> reuse_cases() {
    std::vector<ReuseCase> cases;
    cases.push_back({"exp1 hop 25", exp1(25, 1025)});
    cases.push_back({"exp1 hop 150", exp1(150, 1150)});

    // Exp 3 at 10 m: attempt counts, and so trace and capture lengths, vary
    // widely from trial to trial.
    ExperimentConfig far = reuse_config("exp3-10m", 3300, 8);
    far.world.attacker_pos = {-10.0, 0.0};
    cases.push_back({"exp3 10 m", far});

    // Exp 3b at 8 m behind the wall; seed 5028 misses its first CONNECT_REQ
    // and retries the setup.
    ExperimentConfig wall = reuse_config("exp3b-8m", 5026, 6);
    wall.world.attacker_pos = {-8.0, 0.0};
    wall.world.walls.push_back({{-1.0, -50.0}, {-1.0, 50.0}, 6.0});
    cases.push_back({"exp3b 8 m wall", wall});

    ExperimentConfig encrypted = reuse_config("encrypted", 2100, 6);
    encrypted.world.encrypt_link = true;
    cases.push_back({"encrypt_link", encrypted});

    ExperimentConfig csa2 = reuse_config("csa2", 2200, 6);
    csa2.world.use_csa2 = true;
    cases.push_back({"use_csa2", csa2});

    // Seed 5105 ends with the session lost and the victims disconnected.
    ExperimentConfig narrow = reuse_config("widening-0.1", 5103, 6);
    narrow.world.widening_scale = 0.1;
    cases.push_back({"widening_scale 0.1", narrow});

    ExperimentConfig forged = reuse_config("override", 2300, 6);
    forged.payload_override = ble::Bytes{0x04, 0x00, 0x04, 0x00, 0x52, 0x03, 0x00, 0x01};
    cases.push_back({"payload_override", forged});

    ExperimentConfig office = reuse_config("office", 2400, 4);
    office.world = WorldSpec::office();
    cases.push_back({"office crowd", office});
    return cases;
}

TEST(TrialChannelsTest, ATrialOnAReusedWorkerMatchesAFreshSeriesOfItAlone) {
    bool saw_retry = false;
    bool saw_lost = false;
    bool saw_disconnect = false;
    for (const ReuseCase& row : reuse_cases()) {
        // Each trial alone, on a world built for it.
        std::vector<SeriesOutputs> alone;
        for (int i = 0; i < row.config.runs; ++i) {
            ExperimentConfig single = row.config;
            single.runs = 1;
            single.base_seed = row.config.base_seed + static_cast<std::uint64_t>(i);
            single.jobs = 1;
            alone.push_back(run_kept(single));
        }
        // One worker restarting its world for every trial, then three that
        // each restart theirs at least once.
        for (const int jobs : {1, 3}) {
            ExperimentConfig config = row.config;
            config.jobs = jobs;
            const SeriesOutputs series = run_kept(config);
            ASSERT_EQ(series.results.size(), alone.size()) << row.name;
            ble::obs::MetricsSnapshot merged;
            int long_then_short = 0;
            for (std::size_t i = 0; i < alone.size(); ++i) {
                const std::uint64_t seed = series.results[i].seed;
                const std::string where = std::string(row.name) + ", jobs " +
                                          std::to_string(jobs) + ", seed " +
                                          std::to_string(seed);
                ASSERT_EQ(alone[i].results.size(), 1u) << where;
                EXPECT_EQ(series.results[i], alone[i].results[0]) << where;
                EXPECT_EQ(series.traces.at(seed), alone[i].traces.at(seed)) << where;
                EXPECT_EQ(series.captures.at(seed), alone[i].captures.at(seed)) << where;
                merged.merge(alone[i].metrics);
                if (i > 0 && series.traces.at(seed - 1).size() > series.traces.at(seed).size() &&
                    series.captures.at(seed - 1).size() > series.captures.at(seed).size()) {
                    ++long_then_short;
                }
                saw_lost = saw_lost || series.results[i].session_lost;
                saw_disconnect = saw_disconnect || series.results[i].victim_disconnected;
            }
            // Any count or histogram a trial's cells carried over would show
            // here.
            EXPECT_EQ(series.metrics, merged) << row.name << ", jobs " << jobs;
            if (jobs == 1) {
                EXPECT_GT(long_then_short, 0) << row.name << ": no trial followed a longer one";
            }
            saw_retry = saw_retry ||
                        series.worlds.size() > static_cast<std::size_t>(row.config.runs);
        }
    }
    // The table reaches the restart paths it names.
    EXPECT_TRUE(saw_retry) << "no trial took a setup retry";
    EXPECT_TRUE(saw_lost) << "no trial ended with the session lost";
    EXPECT_TRUE(saw_disconnect) << "no trial ended with a victim disconnected";
}

}  // namespace
}  // namespace injectable::world
