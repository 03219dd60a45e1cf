// Dense-environment presets (DESIGN.md §10): the crowd is a pure function of
// (spec, seed) appended after the baseline RNG forks, so enabling it must
// never break serial/parallel bit-identity, and its meta keys must round-trip
// through the trace header exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "world/experiment.hpp"
#include "world/replay.hpp"
#include "world/world.hpp"

namespace injectable::world {
namespace {

/// A crowd small enough for unit-test budgets but exercising all three
/// population kinds (advertisers, scanners, connections).
WorldSpec tiny_dense_spec() {
    WorldSpec spec = WorldSpec::office();
    spec.dense.advertisers = 4;
    spec.dense.scanners = 2;
    spec.dense.connections = 2;
    return spec;
}

TEST(DenseWorld, PresetsPopulateTheSpec) {
    EXPECT_TRUE(WorldSpec::paper_baseline().dense.empty());
    for (const WorldSpec& spec :
         {WorldSpec::office(), WorldSpec::stadium(), WorldSpec::parking_lot()}) {
        EXPECT_FALSE(spec.dense.empty());
        EXPECT_GT(spec.dense.device_count(), 0);
    }
    // The acceptance-scale preset: >= 500 devices, >= 50 coexisting
    // connections.
    EXPECT_GE(WorldSpec::stadium().dense.device_count(), 500);
    EXPECT_GE(WorldSpec::stadium().dense.connections, 50);
}

TEST(DenseWorld, ScaledMultipliesCounts) {
    const DenseEnvironment base = WorldSpec::office().dense;
    const DenseEnvironment doubled = base.scaled(2.0);
    EXPECT_EQ(doubled.advertisers, base.advertisers * 2);
    EXPECT_EQ(doubled.scanners, base.scanners * 2);
    EXPECT_EQ(doubled.connections, base.connections * 2);
    EXPECT_TRUE(base.scaled(0.0).empty());
}

TEST(DenseWorld, BuildsTheRequestedCrowd) {
    WorldSpec spec = tiny_dense_spec();
    World world(spec, 77);
    ASSERT_NE(world.crowd, nullptr);
    EXPECT_EQ(static_cast<int>(world.crowd->advertisers.size()), spec.dense.advertisers);
    EXPECT_EQ(static_cast<int>(world.crowd->scanners.size()), spec.dense.scanners);
    EXPECT_EQ(static_cast<int>(world.crowd->connections.size()), spec.dense.connections);
    EXPECT_EQ(world.crowd->device_count(), spec.dense.device_count());

    World empty_world(WorldSpec::paper_baseline(), 77);
    EXPECT_EQ(empty_world.crowd, nullptr);
}

TEST(DenseWorld, CrowdTrafficActuallyFlows) {
    // A crowd that never transmits would make the density sweep a lie: run
    // the world idle (no victim connection) and count crowd TxStarts.
    WorldSpec spec = tiny_dense_spec();
    World world(spec, 78);
    int crowd_tx = 0;
    ble::obs::ScopedSubscription sub(world.bus(), [&](const ble::obs::Event& event) {
        if (std::get_if<ble::obs::TxStart>(&event) != nullptr) ++crowd_tx;
    });
    world.run_for(ble::milliseconds(500));
    // 4 advertisers at ~100 ms intervals x 3 channels alone give dozens of
    // frames in half a second; connections add two per connection event.
    EXPECT_GT(crowd_tx, 20);
}

TEST(DenseWorld, SerialAndParallelRunsAreBitIdentical) {
    // The PR's determinism acceptance, per preset: jobs=1 vs jobs=8 over a
    // scaled-down crowd of each preset flavour must agree bit-exactly.
    for (const WorldSpec& preset :
         {WorldSpec::office(), WorldSpec::stadium(), WorldSpec::parking_lot()}) {
        ExperimentConfig config;
        config.name = "dense-identity";
        config.runs = 4;
        config.max_attempts = 40;
        config.base_seed = 4200;
        config.world = preset;
        config.world.dense = preset.dense.scaled(0.1);

        config.jobs = 1;
        const std::vector<RunResult> serial = run_series(config);
        config.jobs = 8;
        const std::vector<RunResult> parallel = run_series(config);
        ASSERT_EQ(serial.size(), parallel.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            EXPECT_EQ(serial[i], parallel[i]) << "trial " << i << " diverged";
        }
    }
}

TEST(DenseWorld, EnablingTheCrowdAppendsToTheRngTree) {
    // The crowd forks off the world root *after* every baseline device, so a
    // baseline world's devices draw identical streams whether or not some
    // other spec enables density.  Cheap proxy: the baseline experiment's
    // results are unchanged by an unrelated dense run in between.
    ExperimentConfig baseline;
    baseline.name = "dense-baseline-guard";
    baseline.runs = 2;
    baseline.max_attempts = 60;
    baseline.base_seed = 510;
    const auto before = run_series(baseline);

    ExperimentConfig dense = baseline;
    dense.world = tiny_dense_spec();
    (void)run_series(dense);

    const auto after = run_series(baseline);
    ASSERT_EQ(before.size(), after.size());
    for (std::size_t i = 0; i < before.size(); ++i) EXPECT_EQ(before[i], after[i]);
}

/// FNV-1a over raw bytes.
struct Fnv1a {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    void mix(const void* data, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
            h ^= static_cast<const unsigned char*>(data)[i];
            h *= 0x100000001b3ULL;
        }
    }
    void u64(std::uint64_t v) { mix(&v, sizeof v); }
};

TEST(DenseWorld, StadiumDigestIsPinned) {
    // The crowded medium bit for bit: every capture verdict of two full
    // stadium trials (tx id, receiver, verdict, corrupted bytes, sync bit
    // errors, RSSI bit pattern) plus the trial outcomes.  Any change to a
    // fading or lottery draw, its place in the stream, or a corruption
    // decision among 580 crowd radios moves this digest.  Recorded before the
    // lottery moved to overlap segments.
    ExperimentConfig config;
    config.name = "stadium-digest";
    config.runs = 2;
    config.base_seed = 9000;
    config.jobs = 1;  // one thread: the sink sees the worlds in trial order
    config.world = WorldSpec::stadium();
    Fnv1a digest;
    std::uint64_t decisions = 0;
    config.per_trial_sinks = [&](ble::obs::EventBus& bus, std::uint64_t seed) {
        digest.u64(seed);
        (void)bus.subscribe([&](const ble::obs::Event& event) {
            const auto* rx = std::get_if<ble::obs::RxDecision>(&event);
            if (rx == nullptr) return;
            ++decisions;
            digest.u64(rx->tx_id);
            digest.mix(rx->receiver.data(), rx->receiver.size());
            digest.u64(static_cast<std::uint64_t>(rx->verdict));
            digest.u64(static_cast<std::uint64_t>(rx->corrupted_bytes));
            digest.u64(static_cast<std::uint64_t>(rx->sync_bit_errors));
            std::uint64_t rssi_bits = 0;
            std::memcpy(&rssi_bits, &rx->rssi_dbm, sizeof rssi_bits);
            digest.u64(rssi_bits);
        });
    };
    NullResultSink sink;
    const std::vector<RunResult> results = run_series(config, sink);
    ASSERT_EQ(results.size(), 2u);
    for (const RunResult& r : results) {
        digest.u64(r.seed);
        digest.u64(static_cast<std::uint64_t>(r.attempts));
        digest.u64(static_cast<std::uint64_t>(r.heuristic_false_positives));
        digest.u64(static_cast<std::uint64_t>(r.heuristic_false_negatives));
        digest.u64((r.success ? 1u : 0u) | (r.sniffed ? 2u : 0u) | (r.established ? 4u : 0u) |
                   (r.session_lost ? 8u : 0u) | (r.victim_disconnected ? 16u : 0u));
    }
    EXPECT_EQ(decisions, 53380u);
    EXPECT_EQ(digest.h, 0xf1bebc0ec42d7f6dULL);
}

TEST(DenseWorld, MetaRoundTripsThroughTraceHeader) {
    ExperimentConfig config;
    config.name = "dense-meta";
    config.world = tiny_dense_spec();
    config.world.dense.area_radius_m = 12.5;
    config.world.dense.adv_interval = ble::milliseconds(150);
    const std::string meta = experiment_meta_json(config, /*seed=*/31, /*tries=*/1);
    EXPECT_NE(meta.find("\"dense_advertisers\":4"), std::string::npos);
    EXPECT_NE(meta.find("\"dense_connections\":2"), std::string::npos);

    const TraceMeta parsed = parse_trace_meta(meta);
    ASSERT_TRUE(parsed.valid);
    EXPECT_EQ(parsed.config.world.dense.advertisers, config.world.dense.advertisers);
    EXPECT_EQ(parsed.config.world.dense.scanners, config.world.dense.scanners);
    EXPECT_EQ(parsed.config.world.dense.connections, config.world.dense.connections);
    EXPECT_DOUBLE_EQ(parsed.config.world.dense.area_radius_m, 12.5);
    EXPECT_EQ(parsed.config.world.dense.adv_interval, ble::milliseconds(150));

    // Baseline specs keep their historical header byte-for-byte: no dense_*
    // keys appear when the crowd is empty.
    ExperimentConfig empty;
    EXPECT_EQ(experiment_meta_json(empty, 31, 1).find("dense_"), std::string::npos);
}

}  // namespace
}  // namespace injectable::world
