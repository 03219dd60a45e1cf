#include <gtest/gtest.h>

#include "world/experiment.hpp"
#include "world/world.hpp"

namespace injectable::world {
namespace {

using namespace ble;

// The default-constructed spec IS the paper's Fig. 8 testbed.  Benches, test
// fixtures and examples all start from this one definition, so these values
// are pinned: changing any of them silently moves every measurement.
TEST(WorldSpecTest, DefaultsPinThePaperBaseline) {
    const WorldSpec spec;
    EXPECT_EQ(spec.hop_interval, 36);
    EXPECT_EQ(spec.supervision_timeout, 0);  // derive the spec minimum
    EXPECT_FALSE(spec.use_csa2);
    EXPECT_FALSE(spec.encrypt_link);
    EXPECT_DOUBLE_EQ(spec.master_sca_ppm, 50.0);   // declared in CONNECT_REQ
    EXPECT_DOUBLE_EQ(spec.master_clock_ppm, 30.0);  // actual crystal
    EXPECT_DOUBLE_EQ(spec.slave_sca_ppm, 20.0);
    EXPECT_DOUBLE_EQ(spec.attacker_sca_ppm, 20.0);
    EXPECT_DOUBLE_EQ(spec.fading_sigma_db, 6.0);  // office environment
    EXPECT_DOUBLE_EQ(spec.widening_scale, 1.0);
    EXPECT_EQ(spec.master_traffic_every_events, 2);  // chatty real master
    EXPECT_EQ(spec.profile, VictimProfile::kLightbulb);
    // Fig. 8 geometry: 2 m equilateral triangle.
    EXPECT_DOUBLE_EQ(spec.peripheral_pos.x, 0.0);
    EXPECT_DOUBLE_EQ(spec.central_pos.x, 2.0);
    EXPECT_DOUBLE_EQ(spec.attacker_pos.x, 1.0);
    EXPECT_DOUBLE_EQ(spec.attacker_pos.y, 1.732);
    EXPECT_TRUE(spec.walls.empty());
}

TEST(WorldSpecTest, ExperimentConfigSharesTheBaselineDefault) {
    // The §VII benches and the attack tests must not drift apart: both
    // inherit their testbed from the same default-constructed WorldSpec.
    const ExperimentConfig config;
    const WorldSpec baseline = WorldSpec::paper_baseline();
    EXPECT_EQ(config.world.hop_interval, baseline.hop_interval);
    EXPECT_DOUBLE_EQ(config.world.master_sca_ppm, baseline.master_sca_ppm);
    EXPECT_DOUBLE_EQ(config.world.master_clock_ppm, baseline.master_clock_ppm);
    EXPECT_DOUBLE_EQ(config.world.fading_sigma_db, baseline.fading_sigma_db);
    EXPECT_EQ(config.world.master_traffic_every_events,
              baseline.master_traffic_every_events);
    EXPECT_EQ(config.runs, 25);            // paper: 25 connections per point
    EXPECT_EQ(config.max_attempts, 1500);  // paper's attempt budget
    EXPECT_EQ(config.ll_payload_size, 12u);  // 22-byte / 176 us frame
}

TEST(WorldSpecTest, ProtocolTestPresetIsDeterministic) {
    const WorldSpec spec = WorldSpec::protocol_test();
    EXPECT_DOUBLE_EQ(spec.fading_sigma_db, 0.0);
    EXPECT_DOUBLE_EQ(spec.master_sca_ppm, 0.0);  // declare the real bound
    EXPECT_DOUBLE_EQ(spec.master_clock_ppm, 50.0);
    EXPECT_EQ(spec.supervision_timeout, 300);
    EXPECT_EQ(spec.master_traffic_every_events, 0);
}

TEST(WorldSpecTest, SupervisionFieldResolvesSentinel) {
    WorldSpec spec;
    spec.supervision_timeout = 250;
    EXPECT_EQ(spec.supervision_field(), 250);  // explicit value passes through

    spec.supervision_timeout = 0;
    spec.hop_interval = 36;  // 45 ms interval: derived floor is the 1 s min
    EXPECT_EQ(spec.supervision_field(), 100);
    spec.hop_interval = 200;  // 250 ms interval: 8 intervals = 2 s
    EXPECT_EQ(spec.supervision_field(), 200);
    spec.hop_interval = 3200;  // 4 s interval: capped at the 32 s spec max
    EXPECT_EQ(spec.supervision_field(), 3200);

    EXPECT_EQ(spec.connection_params().timeout, spec.supervision_field());
}

TEST(WorldTest, SameSpecAndSeedReplayIdentically) {
    WorldSpec spec;  // full baseline: fading on, traffic on
    spec.seed = 42;
    World a(spec);
    World b(spec);
    const auto cap_a = a.establish_and_sniff(10_s);
    const auto cap_b = b.establish_and_sniff(10_s);
    ASSERT_TRUE(cap_a.has_value());
    ASSERT_TRUE(cap_b.has_value());
    EXPECT_EQ(cap_a->params.access_address, cap_b->params.access_address);
    EXPECT_EQ(cap_a->params.hop_interval, cap_b->params.hop_interval);
    EXPECT_EQ(a.scheduler.now(), b.scheduler.now());
}

TEST(WorldTest, DifferentSeedsProduceDifferentConnections) {
    const WorldSpec spec = WorldSpec::protocol_test();
    World a(spec, 1);
    World b(spec, 2);
    const auto cap_a = a.establish_and_sniff(5_s);
    const auto cap_b = b.establish_and_sniff(5_s);
    ASSERT_TRUE(cap_a.has_value());
    ASSERT_TRUE(cap_b.has_value());
    EXPECT_NE(cap_a->params.access_address, cap_b->params.access_address);
}

TEST(WorldTest, EstablishAndSniffStoresCapture) {
    World world(WorldSpec::protocol_test());
    const auto captured = world.establish_and_sniff(5_s);
    ASSERT_TRUE(captured.has_value());
    ASSERT_TRUE(world.sniffed.has_value());
    EXPECT_EQ(world.sniffed->params.access_address, captured->params.access_address);
    EXPECT_TRUE(world.central->connected());
    EXPECT_TRUE(world.peripheral->connected());
    EXPECT_EQ(captured->params.hop_interval, world.spec.hop_interval);
}

TEST(WorldTest, BeginConnectionLeavesSniffingToCaller) {
    // The dongle CLI drives its own capture through the firmware radio; the
    // world must be able to bring the victims up without arming a sniffer.
    World world(WorldSpec::protocol_test());
    world.begin_connection();
    world.run_until(5_s, [&] {
        return world.central->connected() && world.peripheral->connected();
    });
    EXPECT_TRUE(world.central->connected());
    EXPECT_FALSE(world.sniffed.has_value());
}

TEST(WorldTest, EncryptHelperBringsUpLinkEncryption) {
    World world(WorldSpec::protocol_test());
    ASSERT_TRUE(world.establish_and_sniff(5_s));
    EXPECT_FALSE(world.central->encrypted());
    EXPECT_TRUE(world.encrypt());
    EXPECT_TRUE(world.central->encrypted());
}

TEST(WorldTest, StartSessionSynchronisesAttacker) {
    World world(WorldSpec::protocol_test());
    ASSERT_TRUE(world.establish_and_sniff(5_s));
    AttackSession& session = world.start_session(400_ms);
    EXPECT_FALSE(session.lost());
    EXPECT_GT(session.event_counter(), 0);  // it has tracked real events
    EXPECT_EQ(&world.session, &session);
}

TEST(WorldTest, RestartRewindsToWhatTheConstructorBuilds) {
    // A trial writes the bulb's control attribute, bumps its command counter
    // and leaves sinks, hooks and pending events behind; a restart to another
    // seed must leave none of it, and match a world built with that seed.
    ExperimentConfig config;
    World used(config.world, 41);
    ASSERT_TRUE(run_injection_experiment(used, config, 41).success);
    ASSERT_GT(used.bulb.state().commands_received, 0);
    used.restart(42);
    World fresh(config.world, 42);

    EXPECT_EQ(used.seed, 42u);
    EXPECT_EQ(used.scheduler.now(), fresh.scheduler.now());
    EXPECT_EQ(used.scheduler.pending(), fresh.scheduler.pending());
    EXPECT_FALSE(used.bus().active());
    EXPECT_FALSE(used.sniffed.has_value());
    EXPECT_FALSE(used.central->connected());
    EXPECT_FALSE(used.peripheral->connected());
    EXPECT_EQ(used.central->connection(), nullptr);
    EXPECT_EQ(used.bulb.state().commands_received, 0);
    EXPECT_EQ(used.peripheral->address(), fresh.peripheral->address());
    EXPECT_EQ(used.central->device().address(), fresh.central->device().address());
    const auto& values = used.peripheral->att_server().attributes();
    const auto& expected = fresh.peripheral->att_server().attributes();
    ASSERT_EQ(values.size(), expected.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
        EXPECT_EQ(values[i].handle, expected[i].handle);
        EXPECT_EQ(values[i].value, expected[i].value) << "handle " << values[i].handle;
    }
    EXPECT_EQ(used.attacker->sleep_clock().current_ppm(),
              fresh.attacker->sleep_clock().current_ppm());
    EXPECT_EQ(used.peripheral->device().sleep_clock().current_ppm(),
              fresh.peripheral->device().sleep_clock().current_ppm());
    EXPECT_EQ(used.rng.next_u64(), fresh.rng.next_u64());
}

TEST(WorldTest, LightbulbProfileInstalledWithScratchAttribute) {
    World world(WorldSpec::protocol_test());
    EXPECT_NE(world.bulb.control_handle(), 0);
    EXPECT_NE(world.scratch_handle, 0);

    WorldSpec bare = WorldSpec::protocol_test();
    bare.profile = VictimProfile::kNone;
    World empty(bare);
    EXPECT_EQ(empty.scratch_handle, 0);
}

}  // namespace
}  // namespace injectable::world
