// The §VIII IDS against the real attacks: every scenario must raise at least
// one matching alert, and benign traffic must raise none.
#include <gtest/gtest.h>

#include "attack_world.hpp"
#include "core/scenarios.hpp"
#include "gatt/builder.hpp"
#include "ids/detector.hpp"
#include "obs/bus.hpp"

namespace ble::ids {
namespace {

using injectable::AttackerRadio;
using injectable::AttackSession;
using injectable::SniffedConnection;
using injectable::test::AttackWorld;

/// One obs::IdsAlert as seen on the world's bus.
struct SeenAlert {
    AlertType type{};
    std::uint16_t event_counter = 0;
    std::string detail;
};

/// World with an extra IDS probe radio and its own sniffer capture.
struct IdsWorld {
    explicit IdsWorld(std::uint64_t seed = 11, sim::Position probe_pos = {0.5, -1.0})
        : world(make_options(seed)) {
        sim::RadioDeviceConfig probe_cfg;
        probe_cfg.name = "ids-probe";
        probe_cfg.position = probe_pos;
        probe = std::make_unique<AttackerRadio>(world.scheduler, world.medium,
                                                world.rng.fork(), probe_cfg);
    }

    static AttackWorld::Options make_options(std::uint64_t seed) {
        AttackWorld::Options options = AttackWorld::defaults();
        options.seed = seed;
        return options;
    }

    /// Establishes the victim connection with BOTH the attacker's and the
    /// IDS's sniffers listening.
    bool establish() {
        injectable::AdvSniffer ids_sniffer(*probe);
        ids_sniffer.on_connection = [&](const SniffedConnection& conn,
                                        const link::ConnectReqPdu&) {
            ids_capture = conn;
        };
        ids_sniffer.start();
        attacker_capture = world.establish_and_sniff();
        ids_sniffer.stop();
        if (!attacker_capture || !ids_capture) return false;
        detector = std::make_unique<InjectionDetector>(*probe, *ids_capture);
        alert_sub = obs::ScopedSubscription(world.medium.bus(), [this](const obs::Event& e) {
            if (const auto* alert = std::get_if<obs::IdsAlert>(&e)) {
                alerts.push_back(SeenAlert{static_cast<AlertType>(alert->type),
                                           alert->event_counter, std::string(alert->detail)});
            }
        });
        detector->start();
        session = std::make_unique<AttackSession>(*world.attacker, *attacker_capture);
        session->start();
        world.run_for(400_ms);
        return true;
    }

    [[nodiscard]] bool saw(AlertType type) const {
        for (const auto& alert : alerts) {
            if (alert.type == type) return true;
        }
        return false;
    }

    template <typename Pred>
    bool run_until(Duration budget, Pred pred) {
        const TimePoint deadline = world.scheduler.now() + budget;
        while (world.scheduler.now() < deadline && !pred()) {
            if (!world.scheduler.run_one()) break;
        }
        return pred();
    }

    AttackWorld world;
    std::unique_ptr<AttackerRadio> probe;
    std::optional<SniffedConnection> attacker_capture;
    std::optional<SniffedConnection> ids_capture;
    std::unique_ptr<InjectionDetector> detector;
    std::unique_ptr<AttackSession> session;
    std::vector<SeenAlert> alerts;
    obs::ScopedSubscription alert_sub;
};

TEST(InjectionDetectorTest, BenignTrafficRaisesNoAlerts) {
    IdsWorld ids;
    ASSERT_TRUE(ids.establish());
    ids.session->stop();  // no attack at all
    // Benign GATT traffic.
    ids.world.central->gatt().write_command(ids.world.bulb.control_handle(),
                                            gatt::LightbulbProfile::cmd_set_brightness(50));
    ids.world.run_for(10_s);
    EXPECT_TRUE(ids.detector->following());
    EXPECT_GT(ids.detector->events_observed(), 100u);
    EXPECT_TRUE(ids.alerts.empty())
        << "first alert: " << alert_type_name(ids.alerts[0].type) << " — "
        << ids.alerts[0].detail;
}

TEST(InjectionDetectorTest, DetectsScenarioAInjection) {
    IdsWorld ids;
    ASSERT_TRUE(ids.establish());
    injectable::ScenarioA scenario(*ids.session);
    std::optional<injectable::ScenarioA::Result> result;
    scenario.inject_write(ids.world.bulb.control_handle(),
                          gatt::LightbulbProfile::cmd_set_power(false),
                          [&](const injectable::ScenarioA::Result& r) { result = r; });
    ASSERT_TRUE(ids.run_until(60_s, [&] { return result.has_value(); }));
    ASSERT_TRUE(result->success);
    ids.world.run_for(2_s);
    // A winning injection shifts the anchor by ~the widening: timing anomaly.
    EXPECT_TRUE(ids.saw(AlertType::kAnchorJitter))
        << "alerts: " << ids.alerts.size();
}

TEST(InjectionDetectorTest, DetectsScenarioBTerminateHijack) {
    // Probe placed where it decodes the injected PDU cleanly (close to the
    // attacker): whether the *specific* terminate classification fires
    // depends on the probe's own reception of the colliding frame; the
    // generic signatures (jitter / CRC bursts) fire regardless — covered by
    // DetectsScenarioAInjection.
    IdsWorld ids(11, {1.0, 1.4});
    ASSERT_TRUE(ids.establish());
    att::AttServer fake;
    gatt::GattBuilder builder(fake);
    gatt::add_gap_service(builder, "Hacked");
    injectable::ScenarioB scenario(*ids.session, fake);
    std::optional<injectable::ScenarioB::Result> result;
    scenario.execute([&](const injectable::ScenarioB::Result& r) { result = r; });
    ASSERT_TRUE(ids.run_until(60_s, [&] { return result.has_value(); }));
    ASSERT_TRUE(result->success);
    ids.world.run_for(2_s);
    EXPECT_TRUE(ids.saw(AlertType::kSpuriousTerminate));
}

TEST(InjectionDetectorTest, DetectsScenarioCForgedUpdate) {
    IdsWorld ids;
    ASSERT_TRUE(ids.establish());
    injectable::ScenarioC scenario(*ids.session);
    std::optional<injectable::ScenarioC::Result> result;
    scenario.execute([&](const injectable::ScenarioC::Result& r) { result = r; });
    ASSERT_TRUE(ids.run_until(120_s, [&] { return result.has_value(); }));
    ASSERT_TRUE(result->success);
    ids.world.run_for(3_s);
    // Robust signature: the attacker-run transmit window puts a second
    // anchor-like frame into the instant's event; when the forged update PDU
    // itself was overheard cleanly, the cadence detector corroborates.
    EXPECT_TRUE(ids.saw(AlertType::kDoubleAnchor) || ids.saw(AlertType::kForgedUpdate));
}

TEST(InjectionDetectorTest, LegitTerminationSilent) {
    IdsWorld ids;
    ASSERT_TRUE(ids.establish());
    ids.session->stop();
    ids.world.run_for(500_ms);
    ids.world.central->connection()->terminate();
    ids.world.run_for(5_s);
    EXPECT_FALSE(ids.saw(AlertType::kSpuriousTerminate));
    EXPECT_FALSE(ids.saw(AlertType::kConnectionLost));
}

TEST(InjectionDetectorTest, AlertNamesAreDistinct) {
    EXPECT_STRNE(alert_type_name(AlertType::kAnchorJitter),
                 alert_type_name(AlertType::kCrcBurst));
    EXPECT_STRNE(alert_type_name(AlertType::kSpuriousTerminate),
                 alert_type_name(AlertType::kForgedUpdate));
}

}  // namespace
}  // namespace ble::ids
