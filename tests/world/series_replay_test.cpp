// Series replay from INJECTABLE_JSON records (replay_series_line): the
// "meta" object embedded in every series line must be enough to re-run all
// trials and reproduce the recorded outcome fields exactly — no stored
// traces involved.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "world/experiment.hpp"
#include "world/replay.hpp"

namespace injectable::world {
namespace {

ExperimentConfig small_config() {
    ExperimentConfig config;
    config.name = "series-replay-test";
    config.runs = 3;
    config.max_attempts = 60;
    config.base_seed = 2200;
    config.jobs = 1;
    return config;
}

TEST(SeriesReplay, EveryRunResultFieldRoundTripsThroughTheRecord) {
    // One trial per field, each differing from the default in that field
    // alone, so a field decoded into the wrong member cannot cancel out.
    std::vector<RunResult> trials(10);
    trials[0].seed = std::numeric_limits<std::uint64_t>::max();
    trials[1].success = true;
    trials[2].attempts = 1234;
    trials[3].sniffed = true;
    trials[4].established = true;
    trials[5].session_lost = true;
    trials[6].victim_disconnected = true;
    trials[7].heuristic_false_positives = 3;
    trials[8].heuristic_false_negatives = -4;
    trials[9].wall_ms = 12.5;  // exact in the record's %g
    const ble::json::ParseResult parsed = ble::json::parse(to_json(small_config(), trials));
    ASSERT_TRUE(parsed.ok) << parsed.error;
    const ble::json::Value* array = parsed.value.find("trials");
    ASSERT_NE(array, nullptr);
    ASSERT_EQ(array->array.size(), trials.size());
    for (std::size_t i = 0; i < trials.size(); ++i) {
        const RunResult back = run_result_from_json(array->array[i]);
        EXPECT_EQ(back, trials[i]) << "trial " << i;
        EXPECT_EQ(back.wall_ms, trials[i].wall_ms) << "trial " << i;
    }
}

TEST(SeriesReplay, RoundTripsFromTheJsonRecord) {
    const ExperimentConfig config = small_config();
    const std::vector<RunResult> results = run_series(config);
    const std::string line = to_json(config, results);

    const SeriesReplay replay = replay_series_line(line, /*jobs=*/1);
    ASSERT_TRUE(replay.loaded) << replay.error;
    EXPECT_EQ(replay.name, "series-replay-test");
    EXPECT_EQ(replay.trials, 3);
    EXPECT_EQ(replay.mismatches, 0);
    EXPECT_TRUE(replay.diffs.empty());
}

TEST(SeriesReplay, DetectsTamperedOutcomes) {
    const ExperimentConfig config = small_config();
    const std::vector<RunResult> results = run_series(config);
    std::string line = to_json(config, results);

    // Flip the first trial's attempt count; the replay must localize the
    // divergence to that seed and name the field.
    const std::size_t at = line.find("\"attempts\":");
    ASSERT_NE(at, std::string::npos);
    const std::size_t num_start = at + 11;
    const std::size_t num_end = line.find(',', num_start);
    ASSERT_NE(num_end, std::string::npos);
    line.replace(num_start, num_end - num_start, "777");  // > max_attempts
    const SeriesReplay replay = replay_series_line(line, /*jobs=*/1);
    ASSERT_TRUE(replay.loaded) << replay.error;
    EXPECT_EQ(replay.mismatches, 1);
    ASSERT_EQ(replay.diffs.size(), 1u);
    EXPECT_EQ(replay.diffs[0].seed, 2200u);
    EXPECT_EQ(replay.diffs[0].field, "attempts");
}

TEST(SeriesReplay, RejectsRecordsWithoutMeta) {
    const SeriesReplay replay =
        replay_series_line("{\"experiment\":\"x\",\"trials\":[]}");
    EXPECT_FALSE(replay.loaded);
    EXPECT_NE(replay.error.find("meta"), std::string::npos);
}

TEST(SeriesReplay, RejectsBadJson) {
    const SeriesReplay replay = replay_series_line("{not json");
    EXPECT_FALSE(replay.loaded);
    EXPECT_FALSE(replay.error.empty());
}

}  // namespace
}  // namespace injectable::world
