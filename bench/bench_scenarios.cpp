// Paper §VI: the four attack scenarios, run end-to-end 20 times each and
// validated against ground truth (device state / who stays connected). The
// paper reports these qualitatively ("successfully implemented for the three
// devices"); this harness adds measured success rates, attempt counts and
// time-to-takeover.
#include <cstdio>
#include <memory>
#include <optional>

#include "core/scenarios.hpp"
#include "gatt/builder.hpp"
#include "world/world.hpp"

namespace {

using namespace injectable;
using namespace injectable::world;
using namespace ble;

// The §VI scenarios run on the paper-baseline world (fading office, declared
// 50 / real 30 ppm master) with a silent master and a generous supervision
// timeout, so takeover time measures the attack rather than traffic luck.
WorldSpec scenario_spec(std::uint64_t seed) {
    WorldSpec spec;
    spec.seed = seed;
    spec.supervision_timeout = 300;
    spec.master_traffic_every_events = 0;
    return spec;
}

struct ScenarioWorld : World {
    explicit ScenarioWorld(std::uint64_t seed) : World(scenario_spec(seed)) {}

    bool establish_and_sync() {
        if (!establish_and_sniff(5_s)) return false;
        start_session(400_ms);
        return true;
    }
};

struct Row {
    int runs = 0;
    int success = 0;
    long total_attempts = 0;
    double total_takeover_ms = 0;
};

void print_row(const char* name, const Row& row) {
    std::printf("%-34s %5d/%-3d %10.1f %14.0f\n", name, row.success, row.runs,
                row.runs ? static_cast<double>(row.total_attempts) / row.success : 0.0,
                row.success ? row.total_takeover_ms / row.success : 0.0);
}

}  // namespace

int main() {
    std::printf("=== Attack scenarios A-D (paper §VI), 20 runs each ===\n\n");
    std::printf("%-34s %9s %10s %14s\n", "scenario", "success", "attempts",
                "takeover (ms)");

    constexpr int kRuns = 20;

    // Scenario A: illegitimate use of a device functionality.
    Row row_a;
    for (int i = 0; i < kRuns; ++i) {
        ScenarioWorld world(9100 + static_cast<std::uint64_t>(i));
        if (!world.establish_and_sync()) continue;
        ++row_a.runs;
        const TimePoint t0 = world.scheduler.now();
        ScenarioA scenario(world.session);
        std::optional<ScenarioA::Result> result;
        scenario.inject_write(world.bulb.control_handle(),
                              gatt::LightbulbProfile::cmd_set_power(false),
                              [&](const ScenarioA::Result& r) { result = r; });
        world.run_until(60_s, [&] { return result.has_value(); });
        if (result && result->success && !world.bulb.state().powered) {
            ++row_a.success;
            row_a.total_attempts += result->attempts;
            row_a.total_takeover_ms += to_ms(world.scheduler.now() - t0);
        }
    }
    print_row("A: trigger feature (bulb off)", row_a);

    // Scenario B: slave hijack, validated by the forged Device Name read.
    Row row_b;
    for (int i = 0; i < kRuns; ++i) {
        ScenarioWorld world(9200 + static_cast<std::uint64_t>(i));
        if (!world.establish_and_sync()) continue;
        ++row_b.runs;
        const TimePoint t0 = world.scheduler.now();
        att::AttServer fake;
        gatt::GattBuilder builder(fake);
        const auto name_handle = gatt::add_gap_service(builder, "Hacked");
        ScenarioB scenario(world.session, fake);
        std::optional<ScenarioB::Result> result;
        scenario.execute([&](const ScenarioB::Result& r) { result = r; });
        world.run_until(60_s, [&] { return result.has_value(); });
        if (!result || !result->success) continue;
        std::optional<Bytes> name;
        world.central->gatt().read(name_handle,
                                   [&](std::optional<Bytes> v) { name = std::move(v); });
        world.run_until(5_s, [&] { return name.has_value(); });
        if (name && std::string(name->begin(), name->end()) == "Hacked" &&
            world.central->connected()) {
            ++row_b.success;
            row_b.total_attempts += result->attempts;
            row_b.total_takeover_ms += to_ms(world.scheduler.now() - t0);
        }
    }
    print_row("B: slave hijack (serve 'Hacked')", row_b);

    // Scenario C: master hijack, validated by driving the bulb.
    Row row_c;
    for (int i = 0; i < kRuns; ++i) {
        ScenarioWorld world(9300 + static_cast<std::uint64_t>(i));
        if (!world.establish_and_sync()) continue;
        ++row_c.runs;
        const TimePoint t0 = world.scheduler.now();
        ScenarioC scenario(world.session);
        std::optional<ScenarioC::Result> result;
        scenario.execute([&](const ScenarioC::Result& r) { result = r; });
        world.run_until(120_s, [&] { return result.has_value(); });
        if (!result || !result->success) continue;
        bool wrote = false;
        scenario.hijacked_master()->client().write(
            world.bulb.control_handle(), gatt::LightbulbProfile::cmd_set_power(false),
            [&](bool ok) { wrote = ok; });
        world.run_until(5_s, [&] { return wrote; });
        if (wrote && !world.bulb.state().powered) {
            ++row_c.success;
            row_c.total_attempts += result->attempts;
            row_c.total_takeover_ms += to_ms(world.scheduler.now() - t0);
        }
    }
    print_row("C: master hijack (drive slave)", row_c);

    // Scenario D: MitM, validated by on-the-fly RGB tampering.
    Row row_d;
    for (int i = 0; i < kRuns; ++i) {
        ScenarioWorld world(9400 + static_cast<std::uint64_t>(i));
        if (!world.establish_and_sync()) continue;
        ++row_d.runs;
        const TimePoint t0 = world.scheduler.now();
        const auto radio2 = world.make_attacker("attacker2", {1.0, 1.732});
        ScenarioD scenario(world.session, *radio2);
        scenario.tamper = [](Bytes sdu, bool from_master) -> std::optional<Bytes> {
            if (from_master && sdu.size() >= 7 && sdu[0] == 0x12 &&
                sdu[3] == gatt::LightbulbProfile::kSetColor) {
                sdu[4] = 0x11;
                sdu[5] = 0x22;
                sdu[6] = 0x33;
            }
            return sdu;
        };
        std::optional<ScenarioD::Result> result;
        scenario.execute([&](const ScenarioD::Result& r) { result = r; });
        world.run_until(120_s, [&] { return result.has_value(); });
        if (!result || !result->success) continue;
        bool wrote = false;
        world.central->gatt().write(world.bulb.control_handle(),
                                    gatt::LightbulbProfile::cmd_set_color(200, 100, 50),
                                    [&](bool ok) { wrote = ok; });
        world.run_until(10_s, [&] { return wrote; });
        if (wrote && world.bulb.state().r == 0x11 && world.bulb.state().g == 0x22) {
            ++row_d.success;
            row_d.total_attempts += result->attempts;
            row_d.total_takeover_ms += to_ms(world.scheduler.now() - t0);
        }
    }
    print_row("D: MitM (tamper RGB in flight)", row_d);

    std::printf(
        "\nExpected shape (paper): all four scenarios succeed against the\n"
        "emulated devices; B-D leave the surviving victims unaware.\n");
    return 0;
}
