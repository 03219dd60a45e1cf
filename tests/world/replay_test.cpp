// Trace replay: the meta header must round-trip a full ExperimentConfig, an
// unmodified recorded trace must replay with zero divergences, and a mutated
// trace must fail naming exactly the event that was touched.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "obs/sinks.hpp"
#include "world/replay.hpp"

namespace injectable::world {
namespace {

/// Scoped setenv/unsetenv that restores the previous value on destruction, so
/// a surrounding CI campaign environment can't leak into what we assert.
class EnvGuard {
  public:
    EnvGuard(const char* name, const char* value) : name_(name) {
        const char* old = std::getenv(name);
        had_ = old != nullptr;
        if (had_) old_ = old;
        if (value != nullptr) {
            setenv(name, value, 1);
        } else {
            unsetenv(name);
        }
    }
    ~EnvGuard() {
        if (had_) {
            setenv(name_.c_str(), old_.c_str(), 1);
        } else {
            unsetenv(name_.c_str());
        }
    }
    EnvGuard(const EnvGuard&) = delete;
    EnvGuard& operator=(const EnvGuard&) = delete;

  private:
    std::string name_;
    std::string old_;
    bool had_ = false;
};

ExperimentConfig small_config() {
    ExperimentConfig config;
    config.name = "replay-test";
    config.runs = 1;
    config.max_attempts = 60;
    config.base_seed = 515;
    config.jobs = 1;
    return config;
}

/// Runs a one-trial campaign with tracing on and returns the recorded trace
/// lines (meta header first), exactly as trace_replay would read them.  `tag`
/// keys the trace file per test: ctest runs the cases as parallel processes
/// that share TempDir.
std::vector<std::string> record_trace(const std::string& tag) {
    const std::string dir = ::testing::TempDir();
    const EnvGuard runs("INJECTABLE_RUNS", nullptr);
    const EnvGuard trace_dir("INJECTABLE_TRACE_DIR", dir.c_str());
    const EnvGuard trace_all("INJECTABLE_TRACE_ALL", "1");
    const EnvGuard compress("INJECTABLE_TRACE_COMPRESS", nullptr);
    const EnvGuard chrome("INJECTABLE_CHROME_TRACE_DIR", nullptr);
    const EnvGuard json("INJECTABLE_JSON", nullptr);

    ExperimentConfig config = small_config();
    config.name += "-" + tag;
    const auto results = run_series(config);
    if (results.size() != 1) return {};

    const std::string path =
        dir + "/" + config.name + "-seed" + std::to_string(results[0].seed) + ".jsonl";
    std::string error;
    std::vector<std::string> lines = ble::obs::read_jsonl_file(path, &error);
    std::remove(path.c_str());
    EXPECT_TRUE(error.empty()) << error;
    return lines;
}

TEST(TraceMetaTest, HeaderRoundTripsTheFullConfig) {
    ExperimentConfig config = small_config();
    config.name = "meta \"quoted\"\nname";
    config.max_attempts = 123;
    config.ll_payload_size = 20;
    config.payload_override = ble::Bytes{0x01, 0x02, 0xAB};
    config.world.hop_interval = 36;
    config.world.fading_sigma_db = 3.7;
    config.world.master_sca_ppm = 49.25;
    config.world.attacker_pos = {1.25, -3.5};
    config.world.walls.push_back({{0.5, 1.5}, {2.5, 3.5}, 6.25});
    config.world.encrypt_link = true;
    config.world.attack.hiccup_prob = 0.125;
    config.world.attack.max_missed_events = 9;

    const std::string line = experiment_meta_json(config, 9001, 2);
    const TraceMeta meta = parse_trace_meta(line);
    ASSERT_TRUE(meta.valid) << meta.error;
    EXPECT_EQ(meta.seed, 9001u);
    EXPECT_EQ(meta.tries, 2);
    EXPECT_EQ(meta.config.name, config.name);
    EXPECT_EQ(meta.config.max_attempts, 123);
    EXPECT_EQ(meta.config.ll_payload_size, 20u);
    ASSERT_TRUE(meta.config.payload_override.has_value());
    EXPECT_EQ(*meta.config.payload_override, *config.payload_override);
    EXPECT_EQ(meta.config.world.hop_interval, 36);
    EXPECT_EQ(meta.config.world.fading_sigma_db, 3.7);
    EXPECT_EQ(meta.config.world.attacker_pos.x, 1.25);
    EXPECT_EQ(meta.config.world.attacker_pos.y, -3.5);
    ASSERT_EQ(meta.config.world.walls.size(), 1u);
    EXPECT_EQ(meta.config.world.walls[0].loss_db, 6.25);
    EXPECT_TRUE(meta.config.world.encrypt_link);
    EXPECT_EQ(meta.config.world.attack.hiccup_prob, 0.125);
    EXPECT_EQ(meta.config.world.attack.max_missed_events, 9);

    // The representation is a fixed point: re-serializing the parsed config
    // reproduces the header byte for byte (this is what makes %.17g doubles
    // and the flat encoding sufficient for bit-exact replay).
    EXPECT_EQ(experiment_meta_json(meta.config, meta.seed, meta.tries), line);
}

TEST(TraceMetaTest, RejectsNonMetaOrWrongVersion) {
    EXPECT_FALSE(parse_trace_meta("not json at all").valid);
    EXPECT_FALSE(parse_trace_meta("{\"e\":\"tx\",\"t_ns\":0}").valid);
    EXPECT_FALSE(parse_trace_meta("{\"e\":\"meta\",\"v\":999}").valid);
    const TraceMeta meta = parse_trace_meta("{\"e\":\"meta\",\"v\":999}");
    EXPECT_NE(meta.error.find("version"), std::string::npos);
}

TEST(TraceMetaTest, RejectsValuesOutsideTheCoreSpec) {
    // A header is outside input: hop_interval 0 would never advance the
    // replay's clock, and a huge payload size would allocate without bound.
    const std::string good = experiment_meta_json(small_config(), 515, 3);
    ASSERT_TRUE(parse_trace_meta(good).valid);
    auto doctored = [&good](const std::string& field, const std::string& value) {
        const std::string key = "\"" + field + "\":";
        const std::size_t at = good.find(key);
        EXPECT_NE(at, std::string::npos) << field;
        const std::size_t end = good.find(',', at);
        return good.substr(0, at + key.size()) + value + good.substr(end);
    };
    for (const char* hop : {"0", "5", "3201", "70000", "-36"}) {
        const std::string line = doctored("hop_interval", hop);
        const TraceMeta meta = parse_trace_meta(line);
        EXPECT_FALSE(meta.valid) << hop;
        EXPECT_NE(meta.error.find("hop_interval"), std::string::npos) << meta.error;
        EXPECT_FALSE(replay_trace_lines({line, "{\"e\":\"tx\"}"}).loaded) << hop;
    }
    for (const char* size : {"252", "1000000000000", "-1"}) {
        const TraceMeta meta = parse_trace_meta(doctored("ll_payload_size", size));
        EXPECT_FALSE(meta.valid) << size;
        EXPECT_NE(meta.error.find("ll_payload_size"), std::string::npos) << meta.error;
    }
    EXPECT_TRUE(parse_trace_meta(doctored("hop_interval", "6")).valid);
    EXPECT_TRUE(parse_trace_meta(doctored("hop_interval", "3200")).valid);
    EXPECT_TRUE(parse_trace_meta(doctored("ll_payload_size", "251")).valid);

    // --from-json embeds the same header and goes through the same parser.
    const SeriesReplay series = replay_series_line(
        "{\"experiment\":\"doctored\",\"meta\":" + doctored("hop_interval", "0") +
        ",\"trials\":[{\"seed\":515}]}");
    EXPECT_FALSE(series.loaded);
    EXPECT_NE(series.error.find("hop_interval"), std::string::npos) << series.error;
}

TEST(ReplayTest, UnmodifiedTraceReplaysWithZeroDivergences) {
    const std::vector<std::string> lines = record_trace("unmodified");
    ASSERT_GT(lines.size(), 2u);
    ASSERT_EQ(lines[0].rfind("{\"e\":\"meta\"", 0), 0u);

    const ReplayDiff diff = replay_trace_lines(lines);
    ASSERT_TRUE(diff.loaded) << diff.error;
    EXPECT_TRUE(diff.identical);
    EXPECT_EQ(diff.recorded_events, lines.size() - 1);
    EXPECT_EQ(diff.replayed_events, diff.recorded_events);
}

TEST(ReplayTest, MutatedEventIsReportedAtItsExactIndex) {
    std::vector<std::string> lines = record_trace("mutated");
    ASSERT_GT(lines.size(), 4u);

    // Corrupt one event in the middle of the stream (line k = event k-1: the
    // meta header occupies line 0).
    const std::size_t k = lines.size() / 2;
    const std::string original = lines[k];
    lines[k] += ",\"tampered\":true";

    const ReplayDiff diff = replay_trace_lines(lines);
    ASSERT_TRUE(diff.loaded) << diff.error;
    EXPECT_FALSE(diff.identical);
    EXPECT_EQ(diff.first_divergence, k - 1);
    EXPECT_EQ(diff.recorded_line, lines[k]);
    EXPECT_EQ(diff.replayed_line, original);
}

TEST(ReplayTest, TruncatedTraceDivergesAtTheMissingTail) {
    std::vector<std::string> lines = record_trace("truncated");
    ASSERT_GT(lines.size(), 2u);
    const std::string dropped = lines.back();
    lines.pop_back();

    const ReplayDiff diff = replay_trace_lines(lines);
    ASSERT_TRUE(diff.loaded) << diff.error;
    EXPECT_FALSE(diff.identical);
    EXPECT_EQ(diff.first_divergence, lines.size() - 1);
    EXPECT_TRUE(diff.recorded_line.empty());  // recorded stream ended first
    EXPECT_EQ(diff.replayed_line, dropped);
}

TEST(ReplayTest, ReportsErrorsInsteadOfCrashing) {
    EXPECT_FALSE(replay_trace_lines({}).loaded);
    const ReplayDiff bad_meta = replay_trace_lines({"{\"e\":\"tx\"}"});
    EXPECT_FALSE(bad_meta.loaded);
    EXPECT_FALSE(bad_meta.error.empty());
    const ReplayDiff missing = replay_trace_file("/nonexistent-dir/trace.jsonl");
    EXPECT_FALSE(missing.loaded);
    EXPECT_FALSE(missing.error.empty());
}

}  // namespace
}  // namespace injectable::world
