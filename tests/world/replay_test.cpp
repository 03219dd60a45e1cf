// Trace replay: the meta header must round-trip a full ExperimentConfig, an
// unmodified recorded trace must replay with zero divergences, and a mutated
// trace must fail naming exactly the event that was touched.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "link/spec.hpp"
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

TEST(TraceMetaTest, ParsedConfigLeavesWorkersToBenchJobs) {
    // pcap_export --from-json hands each record's parsed config to
    // run_series, whose TrialRunner sizes itself from config.jobs; the header
    // carries no worker count, so BENCH_JOBS must decide it.
    const EnvGuard jobs("BENCH_JOBS", "4");
    const TraceMeta meta = parse_trace_meta(experiment_meta_json(small_config(), 7, 1));
    ASSERT_TRUE(meta.valid) << meta.error;
    EXPECT_EQ(TrialRunner(meta.config.jobs).jobs(), 4);
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

/// Checks what parse_trace_meta promises of every config it accepts: no
/// crowd, interval or budget the replay could not run.
void expect_runnable(const ExperimentConfig& c, const std::string& input) {
    const WorldSpec& w = c.world;
    const DenseEnvironment& d = w.dense;
    EXPECT_GE(c.max_attempts, 0) << input;
    EXPECT_LE(4LL * c.max_attempts + 64, std::numeric_limits<int>::max()) << input;
    EXPECT_LE(c.ll_payload_size, ble::link::kMaxDataPayloadBytes) << input;
    EXPECT_GE(w.hop_interval, ble::link::kMinHopInterval) << input;
    EXPECT_LE(w.hop_interval, ble::link::kMaxHopInterval) << input;
    EXPECT_GE(d.advertisers, 0) << input;
    EXPECT_GE(d.scanners, 0) << input;
    EXPECT_GE(d.connections, 0) << input;
    EXPECT_GT(d.adv_interval, 0) << input;
    EXPECT_GE(d.min_hop_interval, ble::link::kMinHopInterval) << input;
    EXPECT_LE(d.min_hop_interval, d.max_hop_interval) << input;
    EXPECT_LE(d.max_hop_interval, ble::link::kMaxHopInterval) << input;
}

TEST(TraceMetaTest, SeededGarbageOnTheMetaLineIsRejectedOrRunnable) {
    // The header run_series records for a crowded config with a wall, so
    // every field the parser reads is present.  Parse only: a mutated
    // config is never replayed.
    ExperimentConfig config = small_config();
    config.payload_override = ble::Bytes{0x01, 0x02};
    config.world.walls.push_back({{0.5, 1.5}, {2.5, 3.5}, 6.25});
    config.world.dense = WorldSpec::office().dense;
    const std::string recorded = experiment_meta_json(config, 515, 3);
    ASSERT_TRUE(parse_trace_meta(recorded).valid);

    int accepted = 0;
    int rejected = 0;
    const auto check = [&](const std::string& input) {
        TraceMeta meta;
        EXPECT_NO_THROW(meta = parse_trace_meta(input)) << input;
        if (!meta.valid) {
            EXPECT_FALSE(meta.error.empty()) << input;
            ++rejected;
            return;
        }
        ++accepted;
        expect_runnable(meta.config, input);
    };

    // Each numeric field set to the edges of int, uint32 and int64.
    int numeric_fields = 0;
    for (std::size_t at = recorded.find("\":"); at != std::string::npos;
         at = recorded.find("\":", at + 1)) {
        const std::size_t value = at + 2;
        const char c = recorded[value];
        if (c != '-' && (c < '0' || c > '9')) continue;
        ++numeric_fields;
        const std::size_t end = recorded.find_first_of(",}", value);
        for (const char* edge :
             {"-1", "0", "2147483648", "4294967295", "9223372036854775808"}) {
            check(recorded.substr(0, value) + edge + recorded.substr(end));
        }
    }
    EXPECT_GT(numeric_fields, 30);

    // Every truncation, then seeded byte flips.
    for (std::size_t n = 0; n < recorded.size(); ++n) check(recorded.substr(0, n));
    ble::Rng rng(7300);
    for (int i = 0; i < 4000; ++i) {
        std::string mutated = recorded;
        for (std::uint64_t flips = 1 + rng.next_below(3); flips > 0; --flips) {
            mutated[rng.next_below(mutated.size())] = static_cast<char>(rng.next_below(256));
        }
        check(mutated);
    }
    EXPECT_GT(accepted, 100);
    EXPECT_GT(rejected, 100);
}

TEST(ReplayTest, MetaHeadersThatWouldHangOrAbortAreRejected) {
    // Left unchecked, each header spins the replay forever, aborts it with
    // an uncaught exception, silently drops a wall or overflows the attempt
    // budget.  Each must be an error that names its field.
    const std::string good = experiment_meta_json(small_config(), 515, 3);
    const std::string head = good.substr(0, good.size() - 1);
    std::string max_attempts = good;
    const std::string key = "\"max_attempts\":60";
    ASSERT_NE(max_attempts.find(key), std::string::npos);
    max_attempts.replace(max_attempts.find(key), key.size(), "\"max_attempts\":536870896");
    const std::string crowd = head + R"(,"dense_connections":1)";
    const std::pair<std::string, const char*> probes[] = {
        {crowd + R"(,"dense_min_hop_interval":0,"dense_max_hop_interval":0})",
         "dense_min_hop_interval"},
        {crowd + R"(,"dense_min_hop_interval":48,"dense_max_hop_interval":24})",
         "dense_max_hop_interval"},
        {head + R"(,"dense_advertisers":1,"dense_adv_interval_ns":-1000000000})",
         "dense_adv_interval_ns"},
        {head + R"(,"dense_advertisers":-1})", "dense_advertisers"},
        {head + R"(,"dense_scanners":2147483648})", "dense_scanners"},
        {head + R"(,"walls":"x"})", "walls"},
        {head + R"(,"walls":"1 2 3 4 5;1 2 3 4"})", "walls"},
        {max_attempts, "max_attempts"},
    };
    for (const auto& [line, field] : probes) {
        const TraceMeta meta = parse_trace_meta(line);
        ASSERT_FALSE(meta.valid) << line;
        EXPECT_NE(meta.error.find(field), std::string::npos) << meta.error;
        const ReplayDiff diff = replay_trace_lines({line, "{\"e\":\"x\"}"});
        EXPECT_FALSE(diff.loaded) << line;
        EXPECT_EQ(diff.error, meta.error);
    }
    // The largest budget that still fits is accepted.
    max_attempts.replace(max_attempts.find("536870896"), 9, "536870895");
    EXPECT_TRUE(parse_trace_meta(max_attempts).valid);
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

TEST(ReplayTest, SeededGarbageEventLinesDivergeWhereTheyWereMade) {
    // replay_trace_lines reads event lines from outside: byte mutations,
    // truncations, random bytes, dropped and inserted lines must each be
    // reported at the first event they touched, or replay with zero
    // divergences when the edit changed nothing.
    const std::vector<std::string> recorded = record_trace("garbage");
    ASSERT_GT(recorded.size(), 4u);
    ble::Rng rng(7200);
    const auto random_line = [&rng] {
        std::string line;
        for (std::uint64_t n = rng.next_below(80); n > 0; --n) {
            line.push_back(static_cast<char>(rng.next_below(256)));
        }
        return line;
    };
    for (int round = 0; round < 200; ++round) {
        std::vector<std::string> lines = recorded;
        const std::size_t k = 1 + rng.next_below(lines.size() - 1);  // never the meta line
        std::string& line = lines[k];
        switch (round % 5) {
            case 0:
                line[rng.next_below(line.size())] = static_cast<char>(rng.next_below(256));
                break;
            case 1: line.resize(rng.next_below(line.size())); break;
            case 2: line = random_line(); break;
            case 3: lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(k)); break;
            default: lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(k), random_line());
        }
        std::size_t first_edit = 0;  // event index: line i + 1 holds event i
        while (first_edit + 1 < std::min(lines.size(), recorded.size()) &&
               lines[first_edit + 1] == recorded[first_edit + 1]) {
            ++first_edit;
        }
        const ReplayDiff diff = replay_trace_lines(lines);
        ASSERT_TRUE(diff.loaded) << diff.error;
        EXPECT_EQ(diff.identical, lines == recorded) << "round " << round;
        if (lines != recorded) {
            EXPECT_EQ(diff.first_divergence, first_edit) << "round " << round;
        }
    }
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
